//! Checkpoint/restore container migration.
//!
//! **Extension beyond the paper.** AnDrone migrates virtual drones
//! through the Android activity lifecycle ("although checkpoint-based
//! migration is likely feasible for virtual drones [39, 44, 51],
//! AnDrone simply leverages the existing Android activity lifecycle",
//! Section 4.4). This module implements the checkpoint alternative —
//! a CRIU/Zap-style whole-container snapshot — so the trade-off is
//! explorable:
//!
//! - the lifecycle path needs app cooperation
//!   (`onSaveInstanceState()`) and ships only the image diff;
//! - the checkpoint path needs **no** app cooperation — tasks are
//!   frozen and respawned as they were — but ships the *entire*
//!   flattened filesystem, costing far more VDR storage and transfer
//!   over the drone's cellular uplink.

use androne_simkern::{ContainerId, Euid, Kernel, SchedPolicy};

use crate::container::{ContainerKind, ContainerState};
use crate::error::ContainerError;
use crate::image::{Image, Layer};
use crate::limits::ResourceLimits;
use crate::runtime::ContainerRuntime;

/// A frozen task, enough to respawn it on restore.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSnapshot {
    /// Command name.
    pub name: String,
    /// Effective UID.
    pub euid: Euid,
    /// Scheduling policy.
    pub policy: SchedPolicy,
}

/// A whole-container checkpoint.
#[derive(Debug, Clone)]
pub struct ContainerCheckpoint {
    /// Container name at checkpoint time.
    pub name: String,
    /// Architectural role.
    pub kind: ContainerKind,
    /// The complete flattened filesystem (self-contained: no base
    /// layers required at the restore site).
    pub fs: Layer,
    /// Frozen tasks.
    pub tasks: Vec<TaskSnapshot>,
}

impl ContainerCheckpoint {
    /// Bytes this checkpoint costs to store or transfer — the whole
    /// filesystem, vs just the diff for a lifecycle-based archive.
    pub fn stored_bytes(&self) -> u64 {
        self.fs.size()
    }
}

impl ContainerRuntime {
    /// Checkpoints a running container: freezes its task list and
    /// flattens its filesystem. The container keeps running (the
    /// checkpoint is a consistent copy, as CRIU takes one).
    pub fn checkpoint(
        &self,
        name: &str,
        kernel: &Kernel,
    ) -> Result<ContainerCheckpoint, ContainerError> {
        let container = self
            .get(name)
            .ok_or_else(|| ContainerError::UnknownContainer(name.to_string()))?;
        if container.state != ContainerState::Running {
            return Err(ContainerError::InvalidState {
                container: name.to_string(),
                state: container.state,
                op: "checkpoint",
            });
        }
        let mut full = Image::new();
        for layer in container.fs.image_layers() {
            full.push_layer(layer.clone());
        }
        full.push_layer(std::sync::Arc::new(container.fs.diff().clone()));
        let tasks = kernel
            .tasks
            .in_container(container.id)
            .map(|t| TaskSnapshot {
                name: t.name.clone(),
                euid: t.euid,
                policy: t.policy,
            })
            .collect();
        Ok(ContainerCheckpoint {
            name: name.to_string(),
            kind: container.kind,
            fs: full.flatten(),
            tasks,
        })
    }

    /// Restores a checkpoint: recreates the container with the
    /// snapshotted filesystem and respawns every frozen task. No app
    /// cooperation is involved. (Uses the runtime's own kernel
    /// handle; callers must not hold its lock.)
    pub fn restore(
        &mut self,
        checkpoint: &ContainerCheckpoint,
        limits: ResourceLimits,
    ) -> Result<ContainerId, ContainerError> {
        if self.get(&checkpoint.name).is_some() {
            return Err(ContainerError::DuplicateName(checkpoint.name.clone()));
        }
        // Register the flattened fs as this container's (single)
        // base layer and create/start through the normal lifecycle
        // so memory charging and namespaces behave identically.
        let layer_id = self.images_mut().put_layer(checkpoint.fs.clone());
        let tag = format!("checkpoint/{}", checkpoint.name);
        self.images_mut().tag(tag.clone(), vec![layer_id])?;
        let id = self.create(checkpoint.name.clone(), checkpoint.kind, &tag, limits)?;
        self.start(&checkpoint.name)?;
        // The start spawned a fresh init; respawn the frozen tasks
        // beside it (init is in the snapshot too, so skip one).
        let kernel = self.kernel().clone();
        let mut k = kernel.borrow_mut();
        let mut skipped_init = false;
        for task in &checkpoint.tasks {
            if !skipped_init && task.name.ends_with("/init") {
                skipped_init = true;
                continue;
            }
            k.tasks
                .spawn(task.name.clone(), task.euid, id, task.policy)
                .map_err(ContainerError::Kernel)?;
        }
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne_simkern::KernelConfig;

    fn runtime_with_vd() -> (ContainerRuntime, androne_simkern::SharedKernel) {
        let kernel = Kernel::boot_shared(KernelConfig::ANDRONE_DEFAULT, 1);
        let mut rt = ContainerRuntime::new(kernel.clone()).unwrap();
        let base = Layer::from_files([("/system/build.prop", "android-things")]);
        let id = rt.images_mut().put_layer(base);
        rt.images_mut().tag("android-things", vec![id]).unwrap();
        rt.create(
            "vd1",
            ContainerKind::VirtualDrone,
            "android-things",
            ResourceLimits::UNLIMITED,
        )
        .unwrap();
        rt.start("vd1").unwrap();
        (rt, kernel)
    }

    #[test]
    fn checkpoint_restore_round_trips_fs_and_tasks() {
        let (mut rt, kernel) = runtime_with_vd();
        rt.spawn_task(
            "vd1",
            "uncooperative-app",
            Euid(10_001),
            SchedPolicy::DEFAULT,
        )
        .unwrap();
        rt.get_mut("vd1")
            .unwrap()
            .fs
            .write("/data/app-state.bin", "opaque-in-memory-state");

        let checkpoint = {
            let k = kernel.borrow();
            rt.checkpoint("vd1", &k).unwrap()
        };
        assert_eq!(checkpoint.tasks.len(), 2, "init + app frozen");

        // Restore on a fresh board.
        let kernel2 = Kernel::boot_shared(KernelConfig::ANDRONE_DEFAULT, 2);
        let mut rt2 = ContainerRuntime::new(kernel2.clone()).unwrap();
        let id = rt2.restore(&checkpoint, ResourceLimits::UNLIMITED).unwrap();
        // Filesystem intact, including the base image contents (the
        // checkpoint is self-contained).
        let restored = rt2.get("vd1").unwrap();
        assert_eq!(
            restored.fs.read("/data/app-state.bin").unwrap(),
            bytes::Bytes::from("opaque-in-memory-state")
        );
        assert_eq!(
            restored.fs.read("/system/build.prop").unwrap(),
            bytes::Bytes::from("android-things")
        );
        // The uncooperative app is running again without having saved
        // anything itself.
        let k = kernel2.borrow();
        assert!(k
            .tasks
            .in_container(id)
            .any(|t| t.name == "uncooperative-app"));
    }

    #[test]
    fn checkpoint_costs_more_than_a_lifecycle_archive() {
        let (mut rt, kernel) = runtime_with_vd();
        rt.get_mut("vd1").unwrap().fs.write("/data/x", "tiny-diff");
        let checkpoint = {
            let k = kernel.borrow();
            rt.checkpoint("vd1", &k).unwrap()
        };
        let archive = rt.export("vd1").unwrap();
        assert!(
            checkpoint.stored_bytes() > archive.stored_bytes(),
            "checkpoint {} B vs archive {} B",
            checkpoint.stored_bytes(),
            archive.stored_bytes()
        );
    }

    #[test]
    fn stopped_containers_cannot_be_checkpointed() {
        let (mut rt, kernel) = runtime_with_vd();
        rt.stop("vd1").unwrap();
        let k = kernel.borrow();
        assert!(matches!(
            rt.checkpoint("vd1", &k),
            Err(ContainerError::InvalidState { .. })
        ));
    }

    #[test]
    fn restore_refuses_name_collisions() {
        let (mut rt, kernel) = runtime_with_vd();
        let checkpoint = {
            let k = kernel.borrow();
            rt.checkpoint("vd1", &k).unwrap()
        };
        drop(kernel);
        assert!(matches!(
            rt.restore(&checkpoint, ResourceLimits::UNLIMITED),
            Err(ContainerError::DuplicateName(_))
        ));
    }
}
