//! Absolute bit pins for the PDE solver.
//!
//! Every other identity test in the workspace compares one execution
//! strategy against another (scalar vs lane, serial vs parallel, live vs
//! recovered). A change that moves the scalar and the lane kernel together
//! would pass them all, so this file pins the answers themselves: literal
//! `u64` bit patterns of `solve_on_mesh` values, of converged bond objects,
//! and of one server tick's final answers on the scalar and on the lane
//! route. The kernel may be rebuilt freely; these literals may not change.

use va_server::{Answer, Server, ServerConfig};
use vao_repro::bondlab::{Bond, BondPde, BondPricer, BondUniverse, ShortRateModel};
use vao_repro::numerics::pde::{solve_on_mesh, SolverConfig};
use vao_repro::stream::relation::BondRelation;
use vao_repro::stream::{Query, QueryOutput};
use vao_repro::vao::cost::WorkMeter;
use vao_repro::vao::interface::ResultObject;

const RATE: f64 = 0.0583;

fn bonds() -> [Bond; 3] {
    [
        Bond::new(0, 0.07, 29.5, 100.0),
        Bond::new(1, 0.055, 7.0, 100.0),
        Bond::new(2, 0.0825, 15.25, 250.0),
    ]
}

/// Compares `actual` against the pinned literals; on mismatch the panic
/// message is the full actual list, formatted as the literals are written.
fn assert_bits(what: &str, actual: &[u64], expected: &[u64]) {
    let listing: Vec<String> = actual.iter().map(|v| format!("0x{v:016x}")).collect();
    assert!(
        actual == expected,
        "{what} drifted; actual:\n    {},",
        listing.join(",\n    ")
    );
}

#[test]
fn mesh_solves_keep_their_bits() {
    // (nx, nt); the last mesh has neither count a power of two.
    const MESHES: [(u32, u32); 4] = [(8, 4), (16, 64), (64, 1024), (129, 77)];
    const EXPECTED: [u64; 12] = [
        0x405884c792d0b7e2,
        0x405a41939b1d686e,
        0x405a5f22c897dcb4,
        0x405a45663f5cc23f,
        0x4057660a8a814696,
        0x40585abea416efa3,
        0x40586aeafdd07dba,
        0x40585d353c38ec64,
        0x40706ad022a7c49f,
        0x40717c52c3a7ca15,
        0x40718ef7ec9a799f,
        0x40717f077158e15d,
    ];
    let cfg = SolverConfig::default();
    let mut actual = Vec::new();
    for bond in bonds() {
        let pde = BondPde::new(bond, ShortRateModel::default(), RATE);
        for (nx, nt) in MESHES {
            let sol = solve_on_mesh(&pde, nx, nt, &cfg).expect("bond meshes are regular");
            assert_eq!(sol.work, u64::from(nt) * (u64::from(nx) + 1));
            actual.push(sol.value.to_bits());
        }
    }
    assert_bits("solve_on_mesh values", &actual, &EXPECTED);
}

#[test]
fn converged_bonds_keep_their_bits() {
    // Per bond: lo bits, hi bits, nt, nx, cumulative_cost, meter total.
    const EXPECTED: [u64; 18] = [
        0x405a60b2bf3a52d4,
        0x405a61491f3c3661,
        0x0000000000004000,
        0x0000000000000080,
        0x000000000040d2a0,
        0x000000000040d2b3,
        0x40586bbeadc7ded0,
        0x40586c4ee605ace4,
        0x0000000000002000,
        0x0000000000000040,
        0x00000000001062a0,
        0x00000000001062b1,
        0x4071901c382274c2,
        0x4071903d5b019758,
        0x0000000000008000,
        0x0000000000000100,
        0x000000000101e2a0,
        0x000000000101e2b5,
    ];
    let pricer = BondPricer::default();
    let mut actual = Vec::new();
    for bond in bonds() {
        let mut meter = WorkMeter::new();
        let mut obj = pricer.price(bond, RATE, &mut meter);
        let mut guard = 0;
        while !obj.converged() {
            obj.iterate(&mut meter);
            guard += 1;
            assert!(guard < 64, "bond {} failed to converge", bond.id);
        }
        let (nt, nx) = obj.mesh();
        actual.extend([
            obj.bounds().lo().to_bits(),
            obj.bounds().hi().to_bits(),
            u64::from(nt),
            u64::from(nx),
            obj.cumulative_cost(),
            meter.total(),
        ]);
    }
    assert_bits("converged bond objects", &actual, &EXPECTED);
}

/// One tick of four tight-epsilon sessions over 12 bonds; returns the bits
/// of every bound in the final answers, in session order, then the tick's
/// total work.
fn tick_bits(config: ServerConfig) -> Vec<u64> {
    let n = 12;
    let relation = BondRelation::from_universe(&BondUniverse::generate(n, 1994));
    let mut server = Server::new(BondPricer::default(), relation, config);
    let queries = [
        Query::Max { epsilon: 0.02 },
        Query::Min { epsilon: 0.02 },
        Query::Sum {
            weights: vec![1.0; n],
            epsilon: 0.2,
        },
        Query::TopK {
            k: 3,
            epsilon: 0.02,
        },
    ];
    for q in queries {
        server.subscribe(q, 1).expect("subscribe");
    }
    let result = server.tick(RATE).expect("tick");
    let mut bits = Vec::new();
    for (_, answer) in &result.answers {
        let Answer::Final(out) = answer else {
            panic!("an unbudgeted tick answers every session finally");
        };
        match out {
            QueryOutput::Extreme { bounds, .. } | QueryOutput::Aggregate { bounds } => {
                bits.extend([bounds.lo().to_bits(), bounds.hi().to_bits()]);
            }
            QueryOutput::Ranked { members, .. } => {
                for (_, b) in members {
                    bits.extend([b.lo().to_bits(), b.hi().to_bits()]);
                }
            }
            other => panic!("unexpected output shape {other:?}"),
        }
    }
    bits.push(result.stats.total_work());
    bits
}

#[test]
fn server_tick_keeps_its_bits_on_the_lane_route() {
    const EXPECTED: [u64; 13] = [
        0x405eca4c4bb0abc6,
        0x405ecb48250cb4dc,
        0x40563435f813e476,
        0x405634eb2c3890dc,
        0x40944fed57ff8e9c,
        0x409450934099e60e,
        0x405eca4c4bb0abc6,
        0x405ecb48250cb4dc,
        0x405e8b69192f200f,
        0x405e8c627d4d8e88,
        0x405e22d098c4cfb5,
        0x405e23c6f8cca499,
        0x000000000186e10c,
    ];
    let config = ServerConfig {
        batch: Some(16),
        ..ServerConfig::default()
    };
    assert_bits("batch = Some(16) tick", &tick_bits(config), &EXPECTED);
}

#[test]
fn server_tick_keeps_its_bits_on_the_default_config() {
    const EXPECTED: [u64; 13] = [
        0x405eca4c4bb0abc6,
        0x405ecb48250cb4dc,
        0x40563419d2bb633c,
        0x40563523742911f2,
        0x40944fe18e592979,
        0x409450aad2c43503,
        0x405eca4c4bb0abc6,
        0x405ecb48250cb4dc,
        0x405e8b69192f200f,
        0x405e8c627d4d8e88,
        0x405e22d098c4cfb5,
        0x405e23c6f8cca499,
        0x000000000125687a,
    ];
    assert_bits(
        "default-config tick",
        &tick_bits(ServerConfig::default()),
        &EXPECTED,
    );
}
