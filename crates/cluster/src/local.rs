//! In-process cluster launcher.

use std::sync::Mutex;

use haocl_kernel::KernelRegistry;
use haocl_net::{ChaosPolicy, Fabric};
use haocl_proto::ids::NodeId;
use haocl_sim::Clock;

use crate::config::{ClusterConfig, NodeSpec};
use crate::error::ClusterError;
use crate::host::{HostRuntime, RecoveryPolicy};
use crate::nmp::{NmpHandle, NodeObjects};

/// A whole HaoCL cluster running in-process: one NMP thread pair per node
/// on a shared fabric, plus a connected host runtime.
///
/// Dropping the cluster shuts the daemons down and joins their threads.
///
/// # Examples
///
/// ```
/// use haocl_cluster::{ClusterConfig, LocalCluster};
/// use haocl_kernel::KernelRegistry;
///
/// let cluster = LocalCluster::launch(
///     &ClusterConfig::hetero_cluster(1, 1),
///     KernelRegistry::new(),
/// )?;
/// assert_eq!(cluster.host().node_count(), 2);
/// assert_eq!(cluster.host().devices().len(), 2);
/// # Ok::<(), haocl_cluster::ClusterError>(())
/// ```
pub struct LocalCluster {
    fabric: Fabric,
    /// One entry per node slot, aligned with the host's `NodeId` space;
    /// `None` marks a node whose NMP has been stopped (killed, retired,
    /// or failed to join). Entries are never removed, so indices stay
    /// aligned as membership grows.
    handles: Mutex<Vec<Option<NmpHandle>>>,
    /// The shared bitstream store, kept so late-joining nodes get the
    /// same kernels as the founders.
    registry: KernelRegistry,
    host: HostRuntime,
}

impl LocalCluster {
    /// Spawns NMPs for every node in `config` and connects the host.
    ///
    /// `registry` is shared by all nodes as their bitstream store; it
    /// serves `LoadBitstream` only, so a run that builds every program
    /// from source needs nothing in it.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] on address clashes or handshake failures.
    pub fn launch(config: &ClusterConfig, registry: KernelRegistry) -> Result<Self, ClusterError> {
        let fabric = Fabric::new(Clock::new(), config.link);
        let mut handles = Vec::with_capacity(config.nodes.len());
        for spec in &config.nodes {
            handles.push(Some(NmpHandle::spawn(&fabric, spec, registry.clone())?));
        }
        let host = HostRuntime::connect(&fabric, config)?;
        // Chaos opt-in from the environment (HAOCL_CHAOS_SPEC /
        // HAOCL_CHAOS_SEED): installed only after the handshake, so
        // bring-up is exempt, and paired with a default recovery policy —
        // an injected fault schedule without recovery would just fail.
        // Wildcards resolve against the *node* hosts only; the host
        // process itself is never a crash candidate.
        let node_hosts: Vec<String> = config
            .nodes
            .iter()
            .map(|spec| {
                spec.addr
                    .split(':')
                    .next()
                    .unwrap_or(&spec.addr)
                    .to_string()
            })
            .collect();
        match ChaosPolicy::from_env(&node_hosts) {
            None => {}
            Some(Ok(policy)) => {
                fabric.install_chaos(policy);
                host.set_recovery(Some(RecoveryPolicy::default()));
            }
            Some(Err(e)) => {
                return Err(ClusterError::Config(format!("bad chaos spec: {e}")));
            }
        }
        Ok(LocalCluster {
            fabric,
            handles: Mutex::new(handles),
            registry,
            host,
        })
    }

    /// Adds a node to the running cluster: spawns its NMP on the shared
    /// fabric (with the shared kernel registry) and joins it through the
    /// host's membership handshake. Returns the new node's id.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] on address clashes or a failed handshake; the
    /// NMP is stopped again and the host keeps a `Departed` tombstone.
    pub fn add_node(&self, spec: &NodeSpec) -> Result<NodeId, ClusterError> {
        let handle = NmpHandle::spawn(&self.fabric, spec, self.registry.clone())?;
        // Reserve the slot before the handshake so the handle index and
        // the host's NodeId stay aligned even if the join fails.
        {
            let mut handles = self.handles.lock().expect("handles poisoned");
            debug_assert_eq!(handles.len(), self.host.node_count());
            handles.push(Some(handle));
        }
        match self.host.connect_node(spec) {
            Ok(node) => {
                debug_assert_eq!(
                    node.raw() as usize + 1,
                    self.handles.lock().expect("handles poisoned").len()
                );
                Ok(node)
            }
            Err(e) => {
                if let Some(handle) = self
                    .handles
                    .lock()
                    .expect("handles poisoned")
                    .last_mut()
                    .and_then(Option::take)
                {
                    handle.stop();
                }
                Err(e)
            }
        }
    }

    /// Completes a node's voluntary departure: retires it host-side
    /// (epoch bump booked as voluntary, stragglers failed out) and stops
    /// its NMP, freeing its fabric addresses for a later rejoin.
    ///
    /// The caller is responsible for *draining* first — migrating the
    /// node's resident state off via the platform layer. `remove_node`
    /// itself is the final, state-destroying step.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for an unknown node.
    pub fn remove_node(&self, node: NodeId) -> Result<(), ClusterError> {
        self.host.retire_node(node)?;
        if let Some(handle) = self
            .handles
            .lock()
            .expect("handles poisoned")
            .get_mut(node.raw() as usize)
            .and_then(Option::take)
        {
            handle.stop();
        }
        Ok(())
    }

    /// The connected host runtime.
    pub fn host(&self) -> &HostRuntime {
        &self.host
    }

    /// The shared fabric (to attach extra clients or inspect the link).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Installs a chaos policy on the fabric and enables the default
    /// recovery policy, exactly as the `HAOCL_CHAOS_*` environment
    /// variables would — but scoped to this cluster, so parallel tests
    /// don't race on process-global state.
    pub fn install_chaos(&self, policy: ChaosPolicy) {
        self.fabric.install_chaos(policy);
        self.host.set_recovery(Some(RecoveryPolicy::default()));
    }

    /// The chaos schedule observed so far, one line per injected fault —
    /// the repro artifact to attach to a failing run. Empty when no
    /// chaos policy is installed.
    pub fn chaos_schedule(&self) -> Vec<String> {
        self.fabric
            .with_chaos(|c| c.schedule_lines())
            .unwrap_or_default()
    }

    /// Kills the NMP of node `index` abruptly (failure injection): its
    /// listener threads stop and join, connections drop. Returns `false`
    /// if the node was already killed or the index is out of range.
    pub fn kill_node(&mut self, index: usize) -> bool {
        let Some(handle) = self
            .handles
            .lock()
            .expect("handles poisoned")
            .get_mut(index)
            .and_then(Option::take)
        else {
            return false;
        };
        handle.stop();
        true
    }

    /// The objects the NMP in slot `index` holds; `None` once it has
    /// stopped. A slot is a physical node: after a failover it also holds
    /// what was replayed onto it for the node it replaced.
    pub fn node_objects(&self, index: usize) -> Option<NodeObjects> {
        self.handles
            .lock()
            .expect("handles poisoned")
            .get(index)?
            .as_ref()
            .map(NmpHandle::objects)
    }

    /// Number of NMPs still running.
    pub fn live_nodes(&self) -> usize {
        self.handles
            .lock()
            .expect("handles poisoned")
            .iter()
            .filter(|h| h.is_some())
            .count()
    }

    /// Orderly shutdown: notifies every NMP, then stops and joins them.
    pub fn shutdown(self) {
        self.host.shutdown_cluster();
        for h in self
            .handles
            .lock()
            .expect("handles poisoned")
            .iter_mut()
            .filter_map(Option::take)
        {
            h.stop();
        }
    }
}

impl std::fmt::Debug for LocalCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalCluster")
            .field("nodes", &self.live_nodes())
            .field("devices", &self.host.devices().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haocl_proto::ids::NodeId;
    use haocl_proto::messages::{ApiCall, ApiReply, DeviceKind};

    #[test]
    fn launch_maps_every_device_in_order() {
        let cluster =
            LocalCluster::launch(&ClusterConfig::hetero_cluster(2, 1), KernelRegistry::new())
                .unwrap();
        let devices = cluster.host().devices();
        assert_eq!(devices.len(), 3);
        assert_eq!(devices[0].descriptor.kind, DeviceKind::Gpu);
        assert_eq!(devices[1].descriptor.kind, DeviceKind::Gpu);
        assert_eq!(devices[2].descriptor.kind, DeviceKind::Fpga);
        assert_eq!(devices[2].node, NodeId::new(2));
        cluster.shutdown();
    }

    #[test]
    fn ping_every_node() {
        let cluster =
            LocalCluster::launch(&ClusterConfig::gpu_cluster(3), KernelRegistry::new()).unwrap();
        for i in 0..3 {
            let outcome = cluster.host().call(NodeId::new(i), ApiCall::Ping).unwrap();
            assert!(matches!(outcome.reply, ApiReply::Pong { .. }));
        }
        cluster.shutdown();
    }

    #[test]
    fn drop_without_shutdown_is_clean() {
        let cluster =
            LocalCluster::launch(&ClusterConfig::gpu_cluster(1), KernelRegistry::new()).unwrap();
        drop(cluster); // NmpHandle::drop must stop threads without hanging.
    }

    #[test]
    fn two_clusters_can_coexist() {
        // Separate fabrics: identical addresses do not clash.
        let a =
            LocalCluster::launch(&ClusterConfig::gpu_cluster(1), KernelRegistry::new()).unwrap();
        let b =
            LocalCluster::launch(&ClusterConfig::gpu_cluster(1), KernelRegistry::new()).unwrap();
        assert_eq!(a.host().devices().len(), 1);
        assert_eq!(b.host().devices().len(), 1);
        a.shutdown();
        b.shutdown();
    }
}
