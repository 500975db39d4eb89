//! Drive the §IV SDN control plane end to end: servers probe the
//! controller for each arriving task, the controller runs Alg. 1 and
//! answers with grants + switch entry installs, servers transmit inside
//! their slices and report TERM, and the controller withdraws entries.
//!
//! ```sh
//! cargo run --release --example sdn_control_plane
//! ```

use taps::prelude::*;
use taps::sdn::{Controller, ControllerConfig, ProbeHeader, ServerAgent, ServerMsg};
use taps::timeline::Clock;

fn main() {
    let topo = partial_fat_tree_testbed(GBPS);
    println!("testbed: {} ({} hosts)\n", topo.name, topo.num_hosts());

    // Two tasks: a feasible pair of cross-pod flows, then an infeasible
    // burst that the controller rejects.
    let slot = 0.001;
    let mut controller = Controller::new(
        &topo,
        ControllerConfig {
            slot,
            ..ControllerConfig::default()
        },
    );
    let mut agents: Vec<ServerAgent> = (0..topo.num_hosts())
        .map(|h| ServerAgent::new(h, slot))
        .collect();

    let tasks: Vec<(f64, Vec<ProbeHeader>)> = vec![
        (
            0.0,
            vec![
                ProbeHeader {
                    task: 0,
                    flow: 0,
                    src: 0,
                    dst: 4,
                    size: 500_000.0,
                    deadline: 0.050,
                },
                ProbeHeader {
                    task: 0,
                    flow: 1,
                    src: 1,
                    dst: 5,
                    size: 500_000.0,
                    deadline: 0.050,
                },
            ],
        ),
        (
            0.001,
            vec![ProbeHeader {
                task: 1,
                flow: 2,
                src: 0,
                dst: 4,
                // Same source uplink as flow 0, impossible deadline.
                size: 5_000_000.0,
                deadline: 0.010,
            }],
        ),
    ];

    for (now, probes) in &tasks {
        let (verdict, grants, cmds) = controller.handle_probe(*now, probes);
        println!("t={:.3}s task {}: {:?}", now, probes[0].task, verdict);
        println!("  {} grants, {} switch commands", grants.len(), cmds.len());
        for g in grants {
            let p = &probes.iter().find(|p| p.flow == g.flow).unwrap();
            println!(
                "    flow {}: slices {:?} over {} hops",
                g.flow,
                g.slices,
                g.path.len()
            );
            agents[p.src].accept_grant(*now, p, g.clone(), GBPS);
        }
    }

    // Step the senders slot by slot; forward TERMs to the controller.
    let clock = Clock::new(slot);
    let mut s = 0u64;
    let mut done = 0usize;
    while clock.start(s) < 0.2 && done < 2 {
        let t = clock.start(s);
        for a in agents.iter_mut() {
            for msg in a.advance(s, t) {
                if let ServerMsg::Term { flow } = msg {
                    let withdrawn = controller.handle_term(t, flow);
                    println!(
                        "t={:.3}s: flow {flow} TERM -> {} entries withdrawn",
                        t + slot,
                        withdrawn.len()
                    );
                    done += 1;
                }
            }
        }
        s += 1;
    }

    let st = controller.stats();
    println!("\ncontrol-plane stats: {st:?}");
    assert_eq!(st.rejected_tasks, 1);
    assert_eq!(done, 2, "both granted flows must TERM");
    println!("all granted flows completed inside their slices; rejected task never sent a byte");
}
