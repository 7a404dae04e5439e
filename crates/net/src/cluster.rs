//! Cluster orchestration: the [`ClusterBuilder`] that threads a
//! declarative topology and link plan through every node, the running
//! [`Cluster`] with its restart path, and the sharded multi-instance mode.

use std::net::TcpListener;
use std::sync::mpsc;
use std::time::Duration;

use tetrabft_engine::{FrameRequest, Node, Submitter};
use tetrabft_sim::LinkPlan;
use tetrabft_types::NodeId;
use tetrabft_wire::Wire;

use crate::link::{LinkSetup, NetControl};
use crate::runner::{spawn_node, Event, Ingress, NodeHandle, SubmitHandle};
use crate::topology::{NetError, Topology};

/// A running cluster: `n` nodes in one process, real TCP between them.
///
/// Dropping the cluster stops every node.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug)]
pub struct Cluster<O> {
    outputs: mpsc::Receiver<(NodeId, O)>,
    handles: Vec<NodeHandle>,
    /// Retained for node restarts: the shared output sender, the addresses
    /// every node listens on, and the link setup (plan, metrics, cut
    /// flags) a replacement node re-joins.
    tx: mpsc::Sender<(NodeId, O)>,
    topology: Topology,
    setup: LinkSetup,
}

/// How long a restart will wait out `AddrInUse` while the killed node's
/// accept loop releases the listen port (one ≤20 ms poll, plus OS lag).
const REBIND_WINDOW: Duration = Duration::from_secs(5);

/// What [`ClusterBuilder::spawn_serving`] yields: the cluster plus one
/// [`SubmitHandle`] per node (indexed by [`NodeId`]).
pub type SubmittingCluster<O, R> = (Cluster<O>, Vec<SubmitHandle<R>>);

/// Declarative cluster spec: node count or explicit [`Topology`], a
/// [`LinkPlan`] for fault injection / WAN conditioning, and the
/// deterministic seed feeding every edge's loss and jitter draws.
/// Start it with [`ClusterBuilder::spawn`] (any [`Node`]) or
/// [`ClusterBuilder::spawn_serving`] ([`Submitter`]s serving TCP clients).
///
/// # Examples
///
/// Spawn a 4-node cluster whose links behave like a 30 ms WAN, then sever
/// and heal a link mid-run:
///
/// ```no_run
/// use tetrabft::{Params, TetraNode};
/// use tetrabft_net::{ClusterBuilder, LinkPlan};
/// use tetrabft_types::{Config, NodeId, Value};
///
/// # fn main() -> Result<(), tetrabft_net::NetError> {
/// let cfg = Config::new(4).unwrap();
/// let (mut cluster, net) = ClusterBuilder::new(4).plan(LinkPlan::wan(30)).spawn(|id| {
///     TetraNode::new(cfg, Params::new(1000), id, Value::from_u64(7))
/// })?;
/// net.cut(NodeId(0), NodeId(1)); // the link re-establishes on its own
/// let (node, decided) = cluster.next_output().unwrap();
/// println!("{node} decided {decided}; {:?}", net.stats());
/// # Ok(()) }
/// ```
#[derive(Debug)]
pub struct ClusterBuilder {
    n: usize,
    topology: Option<Topology>,
    plan: LinkPlan,
    seed: u64,
}

impl ClusterBuilder {
    /// Starts a spec for `n` nodes on OS-assigned localhost ports.
    pub fn new(n: usize) -> Self {
        ClusterBuilder { n, topology: None, plan: LinkPlan::ideal(), seed: 0 }
    }

    /// Places nodes at explicit addresses instead of ephemeral localhost
    /// ports (the node count becomes the topology's length).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.n = topology.len();
        self.topology = Some(topology);
        self
    }

    /// Conditions every link according to `plan` (delays, jitter, loss,
    /// scripted partitions). Default: ideal links.
    pub fn plan(mut self, plan: LinkPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Seeds the per-edge conditioning RNGs (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Binds every listen address and builds the cluster shell the
    /// nodes are then launched into, one listener per slot.
    fn bind<O>(self) -> Result<(Cluster<O>, Vec<TcpListener>), NetError> {
        let (listeners, topology) = match self.topology {
            Some(t) => (t.bind_all()?, t),
            None => Topology::bind_ephemeral(self.n)?,
        };
        let setup = LinkSetup::new(self.plan, topology.len(), self.seed);
        let (tx, outputs) = mpsc::channel();
        let handles = std::iter::repeat_with(NodeHandle::default).take(topology.len()).collect();
        Ok((Cluster { outputs, handles, tx, topology, setup }, listeners))
    }

    /// Spawns one node per topology slot, built by `make`, and returns the
    /// cluster plus its [`NetControl`] (link stats and fault injection).
    ///
    /// # Errors
    ///
    /// [`NetError`] on bind or listener-configuration failures.
    pub fn spawn<N, O, F>(self, mut make: F) -> Result<(Cluster<O>, NetControl), NetError>
    where
        N: Node<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        O: Send + 'static,
        F: FnMut(NodeId) -> N,
    {
        let (mut cluster, listeners) = self.bind()?;
        for (i, listener) in listeners.into_iter().enumerate() {
            let id = NodeId(i as u16);
            cluster.launch(id, listener, make(id), Ingress::none())?;
        }
        let control = cluster.setup.control();
        Ok((cluster, control))
    }

    /// Like [`ClusterBuilder::spawn`] for [`Submitter`] nodes **serving
    /// framed client submissions over TCP**: every node also accepts
    /// client connections on its listen port (hello id `0xFFFF`), decodes
    /// each frame through [`FrameRequest`], and feeds it into the engine
    /// mux — the 10k-client path of `tetrabft-load`, with no thread per
    /// connection. One in-process [`SubmitHandle`] per node is returned
    /// too, feeding the same mux.
    ///
    /// # Errors
    ///
    /// As [`ClusterBuilder::spawn`].
    pub fn spawn_serving<N, O, F>(
        self,
        mut make: F,
    ) -> Result<(SubmittingCluster<O, N::Request>, NetControl), NetError>
    where
        N: Submitter<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        N::Request: FrameRequest + Send + 'static,
        O: Send + 'static,
        F: FnMut(NodeId) -> N,
    {
        let (mut cluster, listeners) = self.bind()?;
        let mut submitters = Vec::with_capacity(listeners.len());
        for (i, listener) in listeners.into_iter().enumerate() {
            let id = NodeId(i as u16);
            let events = cluster.launch(id, listener, make(id), Ingress::serving())?;
            submitters.push(SubmitHandle::new(events));
        }
        let control = cluster.setup.control();
        Ok(((cluster, submitters), control))
    }
}

impl<O> Cluster<O> {
    /// Stops node `id` abruptly — the in-process stand-in for `kill -9`:
    /// its threads wind down without any shutdown protocol, sockets break
    /// mid-stream, and nothing is flushed that was not already flushed.
    /// The rest of the cluster keeps running; peers' link supervisors
    /// buffer, re-dial, and re-handshake on their own.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn kill(&self, id: NodeId) {
        self.handles[id.index()].abort();
    }

    /// Restarts slot `id` with the state machine `node` — the
    /// crash-recovery path. The old node (if still running) is killed, the
    /// listen address is re-bound (waiting out the dying accept loop's
    /// `AddrInUse` window), and `node` takes over the slot: same address,
    /// same output channel, same link plan and metrics. A durable `node`
    /// restored from disk announces its bumped incarnation in every
    /// handshake, so peers drop frames buffered for its previous life.
    ///
    /// # Errors
    ///
    /// [`NetError`] if the address cannot be re-bound within the window.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn restart_node<N>(&mut self, id: NodeId, node: N) -> Result<(), NetError>
    where
        N: Node<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        O: Send + 'static,
    {
        let listener = self.rebind(id)?;
        self.launch(id, listener, node, Ingress::none())?;
        Ok(())
    }

    /// Like [`Cluster::restart_node`] for a node of a
    /// [`ClusterBuilder::spawn_serving`] cluster: the replacement serves
    /// TCP clients again and gets a fresh [`SubmitHandle`] (handles of
    /// the killed node are dead and return [`crate::SubmitClosed`]).
    ///
    /// # Errors
    ///
    /// As [`Cluster::restart_node`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn restart_serving<N>(
        &mut self,
        id: NodeId,
        node: N,
    ) -> Result<SubmitHandle<N::Request>, NetError>
    where
        N: Submitter<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        N::Request: FrameRequest + Send + 'static,
        O: Send + 'static,
    {
        let listener = self.rebind(id)?;
        let events = self.launch(id, listener, node, Ingress::serving())?;
        Ok(SubmitHandle::new(events))
    }

    /// Kills slot `id` and re-binds its listen address, waiting out the
    /// dying accept loop's `AddrInUse` window.
    fn rebind(&self, id: NodeId) -> Result<TcpListener, NetError> {
        self.kill(id);
        self.topology.bind_retry(id, REBIND_WINDOW)
    }

    /// Runs `node` in slot `id` on `listener` — the one per-node spawn
    /// behind every spawn and restart — and returns its engine's event
    /// channel.
    fn launch<N, R>(
        &mut self,
        id: NodeId,
        listener: TcpListener,
        node: N,
        ingress: Ingress<N, R>,
    ) -> Result<mpsc::Sender<Event<N::Msg, R>>, NetError>
    where
        N: Node<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        O: Send + 'static,
        R: Send + 'static,
    {
        let (handle, events) = spawn_node(
            node,
            id,
            listener,
            self.topology.clone(),
            self.tx.clone(),
            self.setup.clone(),
            ingress,
        )?;
        self.handles[id.index()] = handle;
        Ok(events)
    }

    /// The addresses this cluster's nodes listen on — what a TCP client
    /// fleet needs to dial the nodes of a [`ClusterBuilder::spawn_serving`]
    /// cluster.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Waits for the next protocol output from any node.
    pub fn next_output(&mut self) -> Option<(NodeId, O)> {
        self.outputs.recv().ok()
    }

    /// Waits for the next protocol output, giving up after `timeout`.
    pub fn next_output_timeout(&mut self, timeout: Duration) -> Option<(NodeId, O)> {
        self.outputs.recv_timeout(timeout).ok()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// `true` if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }
}

/// `k` independent clusters running in parallel threads — the net-layer
/// counterpart of the simulator's deterministic `ShardedSim`
/// (`tetrabft-multishot`): each shard is a full consensus group on its own
/// engine instances, so aggregate throughput scales with `k` across OS
/// threads (the simulator is single-threaded by design; this layer is not).
///
/// Every shard's outputs are funneled into one merged channel, tagged with
/// the shard index, so waiting blocks (no polling) and ends early once all
/// nodes have stopped. Reassembling the single global finalized stream is
/// the consumer's job (for multi-shot shards,
/// `tetrabft_multishot::FinalizedMerge` does exactly that).
///
/// Dropping the sharded cluster stops every node of every shard.
#[derive(Debug)]
pub struct ShardedCluster<O> {
    merged: mpsc::Receiver<(usize, NodeId, O)>,
    /// Per shard, the node stop handles (abort-on-drop).
    handles: Vec<Vec<NodeHandle>>,
}

impl<O> ShardedCluster<O> {
    /// Spawns `k` shards of `n` nodes each; `make` receives the shard
    /// index and node id.
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors as [`NetError`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn spawn<N, F>(k: usize, n: usize, mut make: F) -> Result<ShardedCluster<O>, NetError>
    where
        N: Node<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        O: Send + 'static,
        F: FnMut(usize, NodeId) -> N,
    {
        assert!(k > 0, "at least one shard");
        let (merged_tx, merged) = mpsc::channel();
        let mut handles = Vec::with_capacity(k);
        for j in 0..k {
            let (Cluster { outputs, handles: shard_handles, .. }, _) =
                ClusterBuilder::new(n).spawn(|id| make(j, id))?;
            handles.push(shard_handles);
            // Forwarder: tags the shard's outputs and exits when its node
            // threads stop (their senders drop); once every forwarder is
            // gone the merged channel disconnects, so receivers fail fast
            // instead of sleeping out their timeout.
            let tx = merged_tx.clone();
            std::thread::spawn(move || {
                while let Ok((node, out)) = outputs.recv() {
                    if tx.send((j, node, out)).is_err() {
                        return;
                    }
                }
            });
        }
        Ok(ShardedCluster { merged, handles })
    }

    /// Number of shards.
    pub fn k(&self) -> usize {
        self.handles.len()
    }

    /// Waits (blocking) for the next output from any shard:
    /// `Some((shard, node, output))`, or `None` once `timeout` elapses or
    /// every node of every shard has stopped.
    pub fn next_output_timeout(&mut self, timeout: Duration) -> Option<(usize, NodeId, O)> {
        self.merged.recv_timeout(timeout).ok()
    }
}
