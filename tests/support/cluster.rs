//! One in-process cluster for every tier that needs more than one node:
//! shard primaries, the replicas that follow them and a coordinator, each
//! on its own loopback socket, started from one [`Spec`] and stopped when
//! the [`Cluster`] drops.
//!
//! Every node keeps its files on the cluster's one in-memory disk
//! ([`MemFs`]): durable shard `i` at `/shard-<i>`, replica `k` at
//! `/replica-<k>`. A durable shard sits on a [`FaultFs`] of its own, so a
//! test can [`Cluster::crash`] one the way `kill -9` leaves a process: the
//! disk fails first, then the listener closes, and no shutdown checkpoint
//! ever reaches the directory. Every other node must stop cleanly: a failed
//! shutdown fails the test when the cluster drops.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use mammoth_replica::{Replica, ReplicaConfig};
use mammoth_server::{
    Client, ClientError, Response, RetryPolicy, Server, ServerConfig, SessionSpec, Storage,
};
use mammoth_shard::{Coordinator, CoordinatorConfig, FrontConfig, FrontEnd};
use mammoth_sql::Session;
use mammoth_storage::{FaultFs, FaultPlan, MemFs, Vfs};
use mammoth_types::Value;

use super::wait_for;

/// What [`Cluster::start`] brings up.
pub struct Spec {
    /// One session recipe per shard primary, in shard order. Each keeps
    /// `Storage::InMemory`: `durable` alone decides where a shard's data
    /// lives.
    pub shards: Vec<SessionSpec>,
    /// Put every shard primary on the cluster's disk, under a `FaultFs`
    /// with this schedule; `None` keeps every shard in memory.
    pub durable: Option<FaultPlan>,
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
            durable: None,
            replicas: Vec::new(),
            primary_data: false,
            deadline: Duration::from_millis(1500),
            seed: 7,
            monitor: false,
        }
    }

    /// `n` durable shards whose disks never fail on their own.
    pub fn durable(n: usize) -> Spec {
        Spec {
            durable: Some(FaultPlan::none()),
            ..Spec::in_memory(n)
        }
    }
}

struct Shard {
    /// `None` once stopped.
    server: Option<Server>,
    addr: String,
    /// A durable shard's directory, and its view of the cluster's disk.
    dir: Option<PathBuf>,
    disk: Option<Arc<FaultFs>>,
}

impl Shard {
    /// Shard `i` from its recipe, moved to `/shard-<i>` on `disk` under
    /// `plan` when there is one.
    fn start(i: usize, mut spec: SessionSpec, on: Option<(&Arc<MemFs>, FaultPlan)>) -> Shard {
        // a recipe's own disk would escape the crash model and the audits
        assert!(
            matches!(spec.storage, Storage::InMemory),
            "shard {i}: a durable shard comes from `Spec::durable`, not its recipe"
        );
        let (mut dir, mut disk) = (None, None);
        if let Some((mem, plan)) = on {
            // the directory is durable before the node starts: a power
            // loss judges the node, not the fixture's set-up
            let root = dir.insert(PathBuf::from(format!("/shard-{i}")));
            mem.create_dir_all(root).unwrap();
            mem.sync_dir(Path::new("/")).unwrap();
            let fs = disk.insert(Arc::new(FaultFs::new(mem.clone(), plan)));
            let (fs, root) = (fs.clone(), root.clone());
            spec.storage = Storage::Durable { fs, root };
        }
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
    /// Replica `k`, of `shard` (shard `of`), at `/replica-<k>` on `disk`;
    /// it may read the shard's directory when `primary_data` is set.
    fn start(
        disk: &Arc<MemFs>,
        retry: &RetryPolicy,
        k: usize,
        (of, shard): (usize, &Shard),
        primary_data: bool,
    ) -> Follower {
        let mut cfg = ReplicaConfig::new(&shard.addr, format!("/replica-{k}"));
        cfg.fs = disk.clone();
        cfg.poll_interval = Duration::from_millis(5);
        cfg.retry = retry.clone();
        if primary_data {
            cfg.primary_data = Some(shard.dir.clone().expect("a durable primary"));
        }
        let replica = Some(Replica::start(cfg.clone()).unwrap());
        Follower { replica, cfg, of }
    }

    /// Shut the replica down, if it is up.
    fn stop(&mut self) -> mammoth_types::Result<()> {
        self.replica
            .take()
            .map_or(Ok(()), |r| r.shutdown().map(drop))
    }
}

/// A running cluster. Every node stops on drop; a node whose shutdown
/// fails there fails the test.
pub struct Cluster {
    disk: Arc<MemFs>,
    shards: Vec<Shard>,
    replicas: Vec<Follower>,
    coord: Arc<Coordinator>,
    retry: RetryPolicy,
    primary_data: bool,
}

impl Cluster {
    pub fn start(spec: Spec) -> Cluster {
        let retry = RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(25),
            seed: spec.seed,
        };
        let disk = Arc::new(MemFs::default());
        let on = spec.durable.map(|plan| (&disk, plan));
        let shards = spec.shards.into_iter().enumerate();
        let shards: Vec<Shard> = shards.map(|(i, s)| Shard::start(i, s, on)).collect();
        let follow = |(k, of): (usize, usize)| {
            Follower::start(&disk, &retry, k, (of, &shards[of]), spec.primary_data)
        };
        let replicas: Vec<Follower> = spec.replicas.into_iter().enumerate().map(follow).collect();
        let mut cfg = CoordinatorConfig::new(shards.iter().map(|s| s.addr.clone()).collect());
        cfg.deadline = spec.deadline;
        cfg.retry = retry.clone();
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
            disk,
            shards,
            replicas,
            coord,
            retry,
            primary_data: spec.primary_data,
        }
    }

    /// Start one more replica, of shard `of`; returns its index. The
    /// coordinator knows only the replicas [`Cluster::start`] made.
    pub fn follow(&mut self, of: usize) -> usize {
        let (k, shard) = (self.replicas.len(), (of, &self.shards[of]));
        let node = Follower::start(&self.disk, &self.retry, k, shard, self.primary_data);
        self.replicas.push(node);
        k
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

    /// The operation shard `i`'s disk failed on, if it failed.
    pub fn fired_on(&self, i: usize) -> Option<String> {
        self.shards[i].disk.as_ref().and_then(|d| d.fired_on())
    }

    /// Shard `i`'s primary stops gracefully (drain, then a checkpoint); to
    /// its clients it is gone exactly as a dead process is.
    pub fn kill(&mut self, i: usize) {
        self.shards[i].stop().unwrap();
    }

    /// Shard `i`'s primary dies as `kill -9` leaves it: its disk fails
    /// under every later write — now, or earlier when its `Spec::durable`
    /// plan fired — then its listener closes, so the shutdown checkpoint
    /// never lands and the directory ends where the last acknowledged
    /// statement left it.
    pub fn crash(&mut self, i: usize) {
        let shard = &mut self.shards[i];
        if let Some(disk) = &shard.disk {
            disk.crash_now();
        }
        // the shutdown checkpoint hits the dead disk: that is the point
        let _ = shard.stop();
    }

    /// Stop replica `k`, hand the disk and its directory to `tamper`, and
    /// start it again on whatever is left there.
    pub fn restart_replica(&mut self, k: usize, tamper: impl FnOnce(&dyn Vfs, &Path)) {
        let node = &mut self.replicas[k];
        node.stop().unwrap();
        tamper(self.disk.as_ref(), &node.cfg.data);
        node.replica = Some(Replica::start(node.cfg.clone()).unwrap());
    }

    /// Wait until the health monitor calls every shard healthy.
    pub fn wait_healthy(&self) {
        wait_for(Duration::from_secs(10), "every shard healthy", || {
            let health = self.coord.shard_health();
            health.iter().all(|h| *h == "healthy").then_some(())
        });
    }

    /// The replica that took over shard `i`, if one did.
    fn promoted(&self, i: usize) -> Option<usize> {
        self.replicas
            .iter()
            .position(|r| r.of == i && r.replica.as_ref().is_some_and(|r| r.status().promoted))
    }

    /// The rows of table `t` recovered from shard `i`'s directory — its
    /// promoted replica's, if one took over — once the node holding it has
    /// stopped. A shard that died before creating `t` holds none. Stops the
    /// health monitor first, so the stop is not taken for a death.
    pub fn audit(&mut self, i: usize) -> Vec<Vec<Value>> {
        self.coord.stop_health_monitor();
        let dir = match self.promoted(i) {
            Some(k) => {
                self.replicas[k].stop().unwrap();
                self.replicas[k].cfg.data.clone()
            }
            None => {
                self.shards[i].stop().unwrap();
                self.shards[i].dir.clone().expect("a durable shard")
            }
        };
        rows(self.disk.clone(), dir).expect("recovery of a stopped node")
    }

    /// The rows of table `t` that shard `i`'s directory — its promoted
    /// replica's, if one took over — holds after the power loss of each of
    /// `seeds`, a loss of the disk as it is now, or why recovery failed.
    /// Every node keeps running.
    pub fn power_losses(
        &self,
        i: usize,
        seeds: &[u64],
    ) -> Vec<mammoth_types::Result<Vec<Vec<Value>>>> {
        let dir = match self.promoted(i) {
            Some(k) => self.replicas[k].cfg.data.clone(),
            None => self.shards[i].dir.clone().expect("a durable shard"),
        };
        let lost = |&seed: &u64| rows(Arc::new(self.disk.crash(seed)), dir.clone());
        seeds.iter().map(lost).collect()
    }
}

/// The rows of table `t` recovered from `dir` on `disk`; none without `t`.
fn rows(disk: Arc<MemFs>, dir: PathBuf) -> mammoth_types::Result<Vec<Vec<Value>>> {
    let session = Session::open_durable_with(disk, dir)?;
    let rows = session.catalog().table("t").map(|t| t.rows());
    Ok(rows.unwrap_or_default())
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.coord.stop_health_monitor();
        let mut failed = Vec::new();
        for node in &mut self.replicas {
            failed.extend(node.stop().err());
        }
        for shard in &mut self.shards {
            failed.extend(shard.stop().err());
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
