//! Simulated tasks (processes/threads).
//!
//! Tasks carry the identity that the Binder driver and the VDC rely
//! on: a PID, an effective UID, an optional owning container, and a
//! scheduling policy. The table mirrors the parts of the Linux task
//! struct that AnDrone's mechanisms observe.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::KernelError;
use crate::statehash::{StateHash, StateHasher};

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// An effective user id, as carried in Binder transaction data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Euid(pub u32);

/// Identifier of the container a task runs in.
///
/// The host itself is represented by [`ContainerId::HOST`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(pub u32);

impl ContainerId {
    /// The host (init) container identifier, i.e. no container.
    pub const HOST: ContainerId = ContainerId(0);
}

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ContainerId::HOST {
            write!(f, "host")
        } else {
            write!(f, "ctr:{}", self.0)
        }
    }
}

/// Linux-style scheduling policy for a simulated task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// SCHED_OTHER with a nice value in `-20..=19`.
    Normal { nice: i8 },
    /// SCHED_FIFO with a real-time priority in `1..=99`.
    Fifo { rt_prio: u8 },
    /// SCHED_RR with a real-time priority in `1..=99`.
    RoundRobin { rt_prio: u8 },
}

impl SchedPolicy {
    /// The default timesharing policy.
    pub const DEFAULT: SchedPolicy = SchedPolicy::Normal { nice: 0 };

    /// The highest available real-time FIFO priority, used by the
    /// flight controller's fast loop and by cyclictest.
    pub const MAX_RT: SchedPolicy = SchedPolicy::Fifo { rt_prio: 99 };

    /// Returns `true` for real-time policies (SCHED_FIFO / SCHED_RR).
    pub fn is_realtime(self) -> bool {
        matches!(
            self,
            SchedPolicy::Fifo { .. } | SchedPolicy::RoundRobin { .. }
        )
    }

    /// Returns the real-time priority, or 0 for normal tasks.
    pub fn rt_priority(self) -> u8 {
        match self {
            SchedPolicy::Fifo { rt_prio } | SchedPolicy::RoundRobin { rt_prio } => rt_prio,
            SchedPolicy::Normal { .. } => 0,
        }
    }

    /// Validates the policy parameters.
    pub fn validate(self) -> Result<(), KernelError> {
        match self {
            SchedPolicy::Normal { nice } if !(-20..=19).contains(&nice) => {
                Err(KernelError::InvalidArgument("nice out of range".into()))
            }
            SchedPolicy::Fifo { rt_prio } | SchedPolicy::RoundRobin { rt_prio }
                if !(1..=99).contains(&rt_prio) =>
            {
                Err(KernelError::InvalidArgument("rt_prio out of range".into()))
            }
            _ => Ok(()),
        }
    }
}

/// Lifecycle state of a simulated task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Runnable or running.
    Running,
    /// Blocked waiting on an event.
    Sleeping,
    /// Terminated; kept in the table until reaped.
    Dead,
}

/// A simulated task record.
#[derive(Debug, Clone)]
pub struct Task {
    /// The task's process id.
    pub pid: Pid,
    /// Human-readable command name.
    pub name: String,
    /// Effective UID (Android app UIDs start at 10000).
    pub euid: Euid,
    /// Container the task belongs to.
    pub container: ContainerId,
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// Lifecycle state.
    pub state: TaskState,
    /// Whether the task has locked its memory (`mlockall`), as the
    /// flight controller and cyclictest do.
    pub mlocked: bool,
}

/// The kernel task table.
#[derive(Debug, Default)]
pub struct TaskTable {
    tasks: BTreeMap<Pid, Task>,
    next_pid: u32,
}

impl TaskTable {
    /// Creates an empty task table. PID 1 is the first allocation.
    pub fn new() -> Self {
        TaskTable {
            tasks: BTreeMap::new(),
            next_pid: 1,
        }
    }

    /// Spawns a new task and returns its PID.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        euid: Euid,
        container: ContainerId,
        policy: SchedPolicy,
    ) -> Result<Pid, KernelError> {
        policy.validate()?;
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.tasks.insert(
            pid,
            Task {
                pid,
                name: name.into(),
                euid,
                container,
                policy,
                state: TaskState::Running,
                mlocked: false,
            },
        );
        Ok(pid)
    }

    /// Looks up a task by PID.
    pub fn get(&self, pid: Pid) -> Option<&Task> {
        self.tasks.get(&pid)
    }

    /// Looks up a task mutably by PID.
    pub fn get_mut(&mut self, pid: Pid) -> Option<&mut Task> {
        self.tasks.get_mut(&pid)
    }

    /// Kills a task (marks it dead). Idempotent.
    pub fn kill(&mut self, pid: Pid) -> Result<(), KernelError> {
        match self.tasks.get_mut(&pid) {
            Some(t) => {
                t.state = TaskState::Dead;
                Ok(())
            }
            None => Err(KernelError::NoSuchTask(pid)),
        }
    }

    /// Removes dead tasks from the table, returning how many were
    /// reaped.
    pub fn reap(&mut self) -> usize {
        let before = self.tasks.len();
        self.tasks.retain(|_, t| t.state != TaskState::Dead);
        before - self.tasks.len()
    }

    /// Kills every live task belonging to `container`, returning the
    /// PIDs killed. Used when a container is stopped and when the VDC
    /// terminates processes that ignore device revocation.
    pub fn kill_container(&mut self, container: ContainerId) -> Vec<Pid> {
        let mut killed = Vec::new();
        for t in self.tasks.values_mut() {
            if t.container == container && t.state != TaskState::Dead {
                t.state = TaskState::Dead;
                killed.push(t.pid);
            }
        }
        killed
    }

    /// Iterates over live tasks.
    pub fn live(&self) -> impl Iterator<Item = &Task> {
        self.tasks.values().filter(|t| t.state != TaskState::Dead)
    }

    /// Iterates over live tasks in a container.
    pub fn in_container(&self, container: ContainerId) -> impl Iterator<Item = &Task> {
        self.live().filter(move |t| t.container == container)
    }

    /// Number of live tasks.
    pub fn len(&self) -> usize {
        self.live().count()
    }

    /// Returns `true` when no live tasks exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl StateHash for SchedPolicy {
    fn state_hash(&self, h: &mut StateHasher) {
        match self {
            SchedPolicy::Normal { nice } => {
                h.write_u8(0);
                h.write_i64(i64::from(*nice));
            }
            SchedPolicy::Fifo { rt_prio } => {
                h.write_u8(1);
                h.write_u8(*rt_prio);
            }
            SchedPolicy::RoundRobin { rt_prio } => {
                h.write_u8(2);
                h.write_u8(*rt_prio);
            }
        }
    }
}

impl StateHash for Task {
    fn state_hash(&self, h: &mut StateHasher) {
        self.pid.state_hash(h);
        h.write_str(&self.name);
        self.euid.state_hash(h);
        self.container.state_hash(h);
        self.policy.state_hash(h);
        h.write_u8(match self.state {
            TaskState::Running => 0,
            TaskState::Sleeping => 1,
            TaskState::Dead => 2,
        });
        h.write_bool(self.mlocked);
    }
}

impl StateHash for TaskTable {
    fn state_hash(&self, h: &mut StateHasher) {
        // Dead-but-unreaped tasks are part of the state: a run that
        // reaped earlier than another has diverged.
        h.write_usize(self.tasks.len());
        for task in self.tasks.values() {
            task.state_hash(h);
        }
        h.write_u32(self.next_pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(n: usize, container: ContainerId) -> TaskTable {
        let mut t = TaskTable::new();
        for i in 0..n {
            t.spawn(
                format!("task{i}"),
                Euid(10_000),
                container,
                SchedPolicy::DEFAULT,
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn spawn_allocates_increasing_pids() {
        let mut t = TaskTable::new();
        let a = t
            .spawn("a", Euid(0), ContainerId::HOST, SchedPolicy::DEFAULT)
            .unwrap();
        let b = t
            .spawn("b", Euid(0), ContainerId::HOST, SchedPolicy::DEFAULT)
            .unwrap();
        assert!(b.0 > a.0);
        assert_eq!(a, Pid(1));
    }

    #[test]
    fn invalid_policies_are_rejected() {
        let mut t = TaskTable::new();
        assert!(t
            .spawn(
                "x",
                Euid(0),
                ContainerId::HOST,
                SchedPolicy::Fifo { rt_prio: 0 }
            )
            .is_err());
        assert!(t
            .spawn(
                "x",
                Euid(0),
                ContainerId::HOST,
                SchedPolicy::Fifo { rt_prio: 100 }
            )
            .is_err());
        assert!(t
            .spawn(
                "x",
                Euid(0),
                ContainerId::HOST,
                SchedPolicy::Normal { nice: 42 }
            )
            .is_err());
    }

    #[test]
    fn kill_container_only_touches_that_container() {
        let mut t = table_with(3, ContainerId(1));
        t.spawn("other", Euid(0), ContainerId(2), SchedPolicy::DEFAULT)
            .unwrap();
        let killed = t.kill_container(ContainerId(1));
        assert_eq!(killed.len(), 3);
        assert_eq!(t.in_container(ContainerId(1)).count(), 0);
        assert_eq!(t.in_container(ContainerId(2)).count(), 1);
    }

    #[test]
    fn reap_removes_dead_tasks() {
        let mut t = table_with(2, ContainerId(1));
        t.kill(Pid(1)).unwrap();
        assert_eq!(t.reap(), 1);
        assert_eq!(t.len(), 1);
        assert!(t.get(Pid(1)).is_none());
    }

    #[test]
    fn kill_missing_task_errors() {
        let mut t = TaskTable::new();
        assert!(matches!(t.kill(Pid(7)), Err(KernelError::NoSuchTask(_))));
    }

    #[test]
    fn rt_priority_accessor() {
        assert_eq!(SchedPolicy::MAX_RT.rt_priority(), 99);
        assert!(SchedPolicy::MAX_RT.is_realtime());
        assert!(!SchedPolicy::DEFAULT.is_realtime());
        assert_eq!(SchedPolicy::DEFAULT.rt_priority(), 0);
    }
}
