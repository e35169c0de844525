//! One in-process cluster for every tier that needs more than one node:
//! shard primaries, the replicas that follow them and a coordinator, each
//! on its own loopback socket, started from one [`Spec`] and torn down —
//! directories included — when the [`Cluster`] drops.
//!
//! Durable shards the fixture makes itself sit on a [`FaultFs`], so a test
//! can [`Cluster::crash`] one the way `kill -9` leaves a process: the disk
//! fails first, then the listener closes, and no shutdown checkpoint ever
//! reaches the directory. Every other node must stop cleanly: a failed
//! shutdown fails the test when the cluster drops.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mammoth_replica::{Replica, ReplicaConfig};
use mammoth_server::{
    Client, ClientError, Response, RetryPolicy, Server, ServerConfig, SessionSpec, Storage,
};
use mammoth_shard::{Coordinator, CoordinatorConfig, FrontConfig, FrontEnd};
use mammoth_sql::Session;
use mammoth_storage::{FaultFs, FaultPlan, RealFs};
use mammoth_types::Value;

use super::{tmpdir, wait_for};

/// What [`Cluster::start`] brings up.
pub struct Spec {
    /// One session recipe per shard primary, in shard order. A
    /// `Storage::Durable` recipe is moved onto a crashable disk.
    pub shards: Vec<SessionSpec>,
    /// The shard each replica follows, in replica order. A shard's first
    /// replica is the coordinator's failover target.
    pub replicas: Vec<usize>,
    /// Let every replica read its primary's directory
    /// (`ReplicaConfig::primary_data`): what promotion drains.
    pub primary_data: bool,
    /// The coordinator's per-statement deadline.
    pub deadline: Duration,
    /// The jitter seed of every retry policy in the cluster.
    pub seed: u64,
    /// Run the coordinator's health monitor: 25 ms probes, a primary is
    /// dead after two misses, promotion has 10 s.
    pub monitor: bool,
}

impl Spec {
    /// `n` in-memory shards, no replicas, no monitor.
    pub fn in_memory(n: usize) -> Spec {
        Spec {
            shards: (0..n).map(|_| SessionSpec::in_memory()).collect(),
            replicas: Vec::new(),
            primary_data: false,
            deadline: Duration::from_millis(1500),
            seed: 7,
            monitor: false,
        }
    }

    /// `n` durable shards, each in a fresh temporary directory.
    pub fn durable(n: usize) -> Spec {
        Spec {
            shards: (0..n).map(|_| SessionSpec::durable(fresh_dir())).collect(),
            ..Spec::in_memory(n)
        }
    }
}

/// A directory no other node of any cluster in this process uses.
fn fresh_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    tmpdir(&format!("cluster-{}", NEXT.fetch_add(1, Ordering::SeqCst)))
}

struct Shard {
    /// `None` once stopped.
    server: Option<Server>,
    addr: String,
    /// A durable shard's directory, and the disk under it when the
    /// fixture made that disk.
    dir: Option<PathBuf>,
    disk: Option<Arc<FaultFs>>,
}

impl Shard {
    fn start(mut spec: SessionSpec) -> Shard {
        let mut disk = None;
        if let Storage::Durable { root } = spec.storage.clone() {
            let fs = disk
                .insert(Arc::new(FaultFs::new(Arc::new(RealFs), FaultPlan::none())))
                .clone();
            spec.storage = Storage::DurableVfs { fs, root };
        }
        let dir = match &spec.storage {
            Storage::DurableVfs { root, .. } => Some(root.clone()),
            _ => None,
        };
        let cfg = ServerConfig {
            spec,
            ..ServerConfig::default()
        };
        let server = Server::start(cfg).unwrap();
        Shard {
            addr: server.local_addr().to_string(),
            server: Some(server),
            dir,
            disk,
        }
    }

    /// Shut the primary down, if it is up; `Err` when its shutdown
    /// checkpoint failed.
    fn stop(&mut self) -> mammoth_types::Result<()> {
        self.server
            .take()
            .map_or(Ok(()), |s| s.shutdown().map(drop))
    }
}

struct Follower {
    /// `None` while stopped.
    replica: Option<Replica>,
    cfg: ReplicaConfig,
    /// The shard it follows.
    of: usize,
}

impl Follower {
    /// Shut the replica down, if it is up.
    fn stop(&mut self) -> mammoth_types::Result<()> {
        self.replica
            .take()
            .map_or(Ok(()), |r| r.shutdown().map(drop))
    }
}

/// A running cluster. Every node stops, and every directory goes, on drop;
/// a node whose shutdown fails there fails the test.
pub struct Cluster {
    shards: Vec<Shard>,
    replicas: Vec<Follower>,
    coord: Arc<Coordinator>,
}

impl Cluster {
    pub fn start(spec: Spec) -> Cluster {
        let retry = RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(25),
            seed: spec.seed,
        };
        let shards: Vec<Shard> = spec.shards.into_iter().map(Shard::start).collect();
        let follow = |of: usize| {
            let mut cfg = ReplicaConfig::new(&shards[of].addr, fresh_dir());
            cfg.poll_interval = Duration::from_millis(5);
            cfg.retry = retry.clone();
            if spec.primary_data {
                cfg.primary_data = Some(shards[of].dir.clone().expect("a durable primary"));
            }
            let replica = Some(Replica::start(cfg.clone()).unwrap());
            Follower { replica, cfg, of }
        };
        let replicas: Vec<Follower> = spec.replicas.iter().copied().map(follow).collect();
        let mut cfg = CoordinatorConfig::new(shards.iter().map(|s| s.addr.clone()).collect());
        cfg.deadline = spec.deadline;
        cfg.retry = retry;
        let target = |i| replicas.iter().find(|r| r.of == i);
        cfg.replicas = (0..shards.len())
            .map(|i| target(i).map(|r| r.replica.as_ref().unwrap().local_addr().to_string()))
            .collect();
        cfg.probe_interval = Duration::from_millis(25);
        cfg.suspect_after = 2;
        cfg.promote_timeout = Duration::from_secs(10);
        let coord = Arc::new(Coordinator::new(cfg));
        if spec.monitor {
            coord.start_health_monitor();
        }
        Cluster {
            shards,
            replicas,
            coord,
        }
    }

    pub fn coord(&self) -> Arc<Coordinator> {
        Arc::clone(&self.coord)
    }

    /// A wire front end over the coordinator; the caller shuts it down.
    pub fn front(&self, cfg: FrontConfig) -> FrontEnd {
        FrontEnd::start(cfg, Arc::clone(&self.coord)).unwrap()
    }

    /// Shard `i`'s primary as the cluster started it.
    pub fn addr(&self, i: usize) -> String {
        self.shards[i].addr.clone()
    }

    pub fn replica(&self, k: usize) -> &Replica {
        self.replicas[k].replica.as_ref().expect("replica stopped")
    }

    pub fn replica_addr(&self, k: usize) -> String {
        self.replica(k).local_addr().to_string()
    }

    /// Shard `i`'s primary stops gracefully (drain, then a checkpoint); to
    /// its clients it is gone exactly as a dead process is.
    pub fn kill(&mut self, i: usize) {
        self.shards[i].stop().unwrap();
    }

    /// Shard `i`'s primary dies as `kill -9` leaves it: its disk fails
    /// under every later write — a fixture-made disk now, a test's own
    /// `FaultFs` when its plan fired — then its listener closes, so the
    /// shutdown checkpoint never lands and the directory ends where the
    /// last acknowledged statement left it.
    pub fn crash(&mut self, i: usize) {
        let shard = &mut self.shards[i];
        if let Some(disk) = &shard.disk {
            disk.crash_now();
        }
        // the shutdown checkpoint hits the dead disk: that is the point
        let _ = shard.stop();
    }

    /// Stop replica `k`, hand its directory to `tamper`, and start it again
    /// on whatever is left there.
    pub fn restart_replica(&mut self, k: usize, tamper: impl FnOnce(&Path)) {
        let node = &mut self.replicas[k];
        node.stop().unwrap();
        tamper(&node.cfg.data);
        node.replica = Some(Replica::start(node.cfg.clone()).unwrap());
    }

    /// Wait until the health monitor calls every shard healthy.
    pub fn wait_healthy(&self) {
        wait_for(Duration::from_secs(10), "every shard healthy", || {
            let health = self.coord.shard_health();
            health.iter().all(|h| *h == "healthy").then_some(())
        });
    }

    /// The rows of table `t` recovered from shard `i`'s directory — its
    /// promoted replica's, if one took over — once the node holding it has
    /// stopped. A shard that died before creating `t` holds none. Stops the
    /// health monitor first, so the stop is not taken for a death.
    pub fn audit(&mut self, i: usize) -> Vec<Vec<Value>> {
        self.coord.stop_health_monitor();
        let promoted = |r: &&mut Follower| {
            r.of == i && r.replica.as_ref().is_some_and(|r| r.status().promoted)
        };
        let dir = match self.replicas.iter_mut().find(promoted) {
            Some(node) => {
                node.stop().unwrap();
                node.cfg.data.clone()
            }
            None => {
                self.shards[i].stop().unwrap();
                self.shards[i].dir.clone().expect("a durable shard")
            }
        };
        let session = Session::open_durable(dir).unwrap();
        let rows = session.catalog().table("t").map(|t| t.rows());
        rows.unwrap_or_default()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.coord.stop_health_monitor();
        let mut failed = Vec::new();
        for node in &mut self.replicas {
            failed.extend(node.stop().err());
            let _ = std::fs::remove_dir_all(&node.cfg.data);
        }
        for shard in &mut self.shards {
            failed.extend(shard.stop().err());
            if let Some(dir) = &shard.dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        // a test that already failed keeps its own message
        if !std::thread::panicking() {
            assert!(failed.is_empty(), "a node did not stop cleanly: {failed:?}");
        }
    }
}

/// One statement on a connection of its own.
pub fn ask(addr: &str, sql: &str) -> Result<Response, ClientError> {
    Client::connect(addr, "cluster-fixture", "")?.query(sql)
}

/// Wait until the node at `addr` answers `sql` with exactly `want`.
pub fn wait_served(addr: &str, sql: &str, want: &Response) {
    let what = format!("{addr} to answer {sql:?} with {want:?}");
    wait_for(Duration::from_secs(20), &what, || {
        matches!(ask(addr, sql), Ok(got) if &got == want).then_some(())
    });
}
