//! Crash-restart-rejoin coverage for durable nodes over real TCP: a node
//! killed without warning (`kill -9` semantics — no shutdown protocol, no
//! final flush) must restart from its on-disk state, re-handshake with a
//! bumped incarnation so peers fence its pre-crash frames, pull the blocks
//! it missed via catch-up, and end with a finalized chain byte-for-byte
//! identical to its peers' — while its live-slot WAL stays constant-size.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tetrabft::Params;
use tetrabft_multishot::{Finalized, MultiShotNode};
use tetrabft_net::{Cluster, ClusterBuilder, Topology, CLIENT_HELLO_ID};
use tetrabft_types::{Config, FsyncPolicy, NodeId};
use tetrabft_wire::frame::encode_frame;

fn temp_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tetrabft-crash-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn durable_node(cfg: Config, params: Params, id: NodeId, base: &Path) -> MultiShotNode {
    MultiShotNode::durable(cfg, params, id, base.join(format!("n{}", id.0)))
        .expect("durable store opens")
}

/// Δ = 3 s keeps the 27 s view timeout far beyond any restart gap in these
/// tests: a killed node delays traffic, never triggers a view change.
fn params() -> Params {
    Params::new(3_000).with_max_block_txs(2).with_fsync(FsyncPolicy::Always)
}

/// Collects `(slot, hash)` pairs per watched node until each watched node
/// has finalized `slots` slots; asserts slot order per node.
fn collect_chains(
    cluster: &mut Cluster<Finalized>,
    watch: &[NodeId],
    slots: u64,
    mut on_output: impl FnMut(&mut Cluster<Finalized>, NodeId, &Finalized),
) -> Vec<Vec<(u64, u64)>> {
    let max = watch.iter().map(|w| w.index()).max().expect("watch set is non-empty");
    let mut chains: Vec<Vec<(u64, u64)>> = vec![Vec::new(); max + 1];
    while watch.iter().any(|w| (chains[w.index()].len() as u64) < slots) {
        let (node, fin) =
            cluster.next_output_timeout(Duration::from_secs(60)).expect("finalize within 60s");
        if watch.contains(&node) && fin.slot.0 <= slots {
            chains[node.index()].push((fin.slot.0, fin.hash.0));
        }
        on_output(cluster, node, &fin);
    }
    for w in watch {
        for (i, (slot, _)) in chains[w.index()].iter().enumerate() {
            assert_eq!(*slot, i as u64 + 1, "{w}: finalization must be in slot order");
        }
    }
    chains
}

#[test]
fn sigkilled_node_restarts_from_disk_and_finalizes_the_identical_chain() {
    let base = temp_base("rejoin");
    let cfg = Config::new(4).unwrap();
    let victim = NodeId(1);
    let (mut cluster, _net) = ClusterBuilder::new(4)
        .spawn(|id| {
            let mut node = durable_node(cfg, params(), id, &base);
            for t in 0..6 {
                node.submit_tx(format!("n{id}-t{t}").into_bytes()).unwrap();
            }
            node
        })
        .expect("cluster spawns");

    // Kill the victim once real traffic proves the links are up, give its
    // threads time to wind down (a real `kill -9` frees everything at
    // once; in-process we must not reopen the store under a dying writer),
    // then restart it from its own directory.
    let mut killed = false;
    let mut restored_at = None;
    let chains = collect_chains(&mut cluster, &[NodeId(0), victim], 10, |cluster, node, fin| {
        if !killed && node == NodeId(0) && fin.slot.0 >= 2 {
            killed = true;
            cluster.kill(victim);
            std::thread::sleep(Duration::from_millis(400));
            let node = durable_node(cfg, params(), victim, &base);
            assert!(node.finalized_slot().0 >= 1, "the tip survives on disk");
            restored_at = Some(node.finalized_slot().0);
            cluster.restart_node(victim, node).expect("victim rebinds its own port");
        }
    });
    assert!(killed, "the fault must actually be injected");
    let restored_at = restored_at.expect("restart happened");

    // The victim's output stream (pre-crash outputs plus post-restart
    // catch-up and live finalizations) is the same chain node 0 saw.
    assert_eq!(chains[victim.index()], chains[0], "rejoined chain must match");
    assert!(
        restored_at < 10,
        "the victim must have been behind at restart (restored at {restored_at}), \
         so slots {}..=10 prove catch-up worked",
        restored_at + 1
    );

    // Byte-for-byte: stop everything, then compare the on-disk chain logs.
    // Any node's log must be a prefix of the longest one — identical bytes,
    // not merely identical hashes.
    drop(cluster);
    std::thread::sleep(Duration::from_millis(300));
    let logs: Vec<Vec<u8>> = (0..4)
        .map(|i| fs::read(base.join(format!("n{i}")).join("chain.wal")).expect("chain log"))
        .collect();
    let longest = logs.iter().map(Vec::len).max().unwrap();
    for (i, log) in logs.iter().enumerate() {
        assert!(!log.is_empty(), "node {i} persisted no blocks");
        let reference = logs.iter().find(|l| l.len() == longest).unwrap();
        assert_eq!(
            &log[..],
            &reference[..log.len()],
            "node {i}'s chain log must be a byte-for-byte prefix of the longest log"
        );
    }
    // The paper's storage claim, crash-real: the chain log grew with the
    // run, the live-slot WAL stayed bounded by a constant.
    for i in 0..4 {
        let votes = fs::metadata(base.join(format!("n{i}")).join("votes.wal")).unwrap().len();
        assert!(votes < 64 * 1024, "node {i}: live-slot WAL must stay bounded, got {votes}");
    }
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn flapping_restarts_drop_stale_frames_and_still_converge() {
    let base = temp_base("flap");
    let cfg = Config::new(4).unwrap();
    let victim = NodeId(2);
    let (mut cluster, net) = ClusterBuilder::new(4)
        .spawn(|id| {
            let mut node = durable_node(cfg, params(), id, &base);
            for t in 0..8 {
                node.submit_tx(format!("n{id}-t{t}").into_bytes()).unwrap();
            }
            node
        })
        .expect("cluster spawns");

    // Two quick kill/restart cycles. While the victim is down its peers
    // keep voting, so their supervisors buffer frames for it; the restart
    // handshake then shows a bumped incarnation and those pre-crash frames
    // must be dropped, not replayed into the restored state.
    let mut flaps = 0;
    let chains = collect_chains(&mut cluster, &[NodeId(0), victim], 8, |cluster, node, fin| {
        if node == NodeId(0) && ((fin.slot.0 == 2 && flaps == 0) || (fin.slot.0 == 5 && flaps == 1))
        {
            flaps += 1;
            cluster.kill(victim);
            std::thread::sleep(Duration::from_millis(900));
            let node = durable_node(cfg, params(), victim, &base);
            cluster.restart_node(victim, node).expect("victim rebinds its own port");
        }
    });
    assert_eq!(flaps, 2, "both restarts must be injected");
    assert_eq!(chains[victim.index()], chains[0], "chains agree across flapping restarts");
    let stats = net.stats();
    assert!(
        stats.frames_dropped_stale > 0,
        "frames buffered across a restart must be fenced by the incarnation handshake: {stats:?}"
    );
    assert!(stats.reconnects > 0, "the victim's links must have re-established: {stats:?}");
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn restarted_serving_node_accepts_tcp_clients_again() {
    let base = temp_base("serve");
    let cfg = Config::new(4).unwrap();
    let victim = NodeId(1);
    // Δ = 200 ms: only liveness matters here, so view changes around the
    // restart are fine — and a 1.8 s timeout keeps them short.
    let params = Params::new(200).with_fsync(FsyncPolicy::Always);
    let ((mut cluster, _submitters), _net) = ClusterBuilder::new(4)
        .spawn_serving(|id| durable_node(cfg, params, id, &base))
        .expect("serving cluster spawns");
    // Let the chain run before the fault.
    loop {
        let (_, fin) = cluster.next_output_timeout(Duration::from_secs(60)).expect("finalize");
        if fin.slot.0 >= 2 {
            break;
        }
    }

    // Restart the victim the way it was spawned: as a serving node.
    cluster.kill(victim);
    std::thread::sleep(Duration::from_millis(400));
    let node = durable_node(cfg, params, victim, &base);
    cluster.restart_serving(victim, node).expect("victim rebinds its own port");

    // Dial it as a TCP client: 10-byte hello (client id + zero
    // incarnation), the 8-byte ack, then one framed transaction.
    let mut client = TcpStream::connect(cluster.topology().addr(victim)).expect("client dials");
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut hello = [0u8; 10];
    hello[..2].copy_from_slice(&CLIENT_HELLO_ID.to_be_bytes());
    client.write_all(&hello).expect("hello");
    let mut ack = [0u8; 8];
    client.read_exact(&mut ack).expect("the restarted node accepts the client hello");
    let tx = b"after-restart".to_vec();
    client.write_all(&encode_frame(&tx).expect("frame")).expect("submit");

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let (_, fin) = cluster
            .next_output_timeout(remaining)
            .expect("the transaction submitted to the restarted node finalizes");
        if fin.block.txs.contains(&tx) {
            break;
        }
    }
    drop(cluster);
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn released_port_rebinds_within_the_retry_window_but_fails_fast_while_held() {
    let (mut listeners, topo) = Topology::bind_ephemeral(1).expect("reserve a port");
    let listener = listeners.remove(0);
    // Held: the fast path must fail immediately (typed), and the retry
    // path must fail once its window closes rather than hang.
    assert!(topo.bind(NodeId(0)).is_err(), "fast bind fails while the port is held");
    assert!(
        topo.bind_retry(NodeId(0), Duration::from_millis(120)).is_err(),
        "retry gives up once the window closes"
    );
    // Released mid-window: exactly the restart race — the old accept loop
    // lets go a beat after the new node starts binding.
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        drop(listener);
    });
    let rebound = topo.bind_retry(NodeId(0), Duration::from_secs(5)).expect("rebind succeeds");
    assert_eq!(rebound.local_addr().unwrap(), topo.addr(NodeId(0)), "same port reacquired");
    release.join().unwrap();
}
