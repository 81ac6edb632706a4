//! The cluster: machines, deployed service instances, admission control,
//! failure re-deploy, and hardware metric sampling.

use std::collections::HashMap;

use metrics::Utilization;
use simcore::SimTime;
use simnet::NodeId;

use crate::node::MachineSpec;
use crate::sla::{PlacementSpec, ServiceSla};

/// Identifier of a deployed service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    Running,
    Failed,
}

/// One running replica of a service on a machine.
#[derive(Debug, Clone)]
pub struct ServiceInstance {
    pub id: InstanceId,
    pub service: String,
    /// Replica ordinal within the service (0-based).
    pub replica: usize,
    /// Machine index in the cluster.
    pub machine: usize,
    pub state: InstanceState,
}

/// Per-machine hardware meters, capacity-normalized like the paper.
pub struct MachineMeters {
    pub cpu: Utilization,
    pub gpu: Utilization,
    /// Memory currently in use, GB (gauge, not time-integrated).
    pub memory_gb: f64,
}

/// The orchestrated cluster.
pub struct Cluster {
    machines: Vec<MachineSpec>,
    instances: Vec<ServiceInstance>,
    meters: Vec<MachineMeters>,
    /// CPU/GPU/memory already promised to instances per machine
    /// (admission control).
    allocated: Vec<(f64, f64)>, // (cpu cores, memory GB)
    next_id: u32,
}

impl Cluster {
    pub fn new(machines: Vec<MachineSpec>) -> Self {
        let meters = machines
            .iter()
            .map(|m| MachineMeters {
                cpu: Utilization::new(m.cpu_cores as f64),
                gpu: Utilization::new(m.gpu_count.max(1) as f64),
                memory_gb: 0.0,
            })
            .collect();
        let allocated = vec![(0.0, 0.0); machines.len()];
        Cluster {
            machines,
            instances: Vec::new(),
            meters,
            allocated,
            next_id: 0,
        }
    }

    /// The paper's testbed inventory wired to a `simnet` topology.
    pub fn testbed(e1: NodeId, e2: NodeId, cloud: NodeId) -> Self {
        Cluster::new(vec![
            MachineSpec::edge1(e1),
            MachineSpec::edge2(e2),
            MachineSpec::cloud(cloud),
        ])
    }

    pub fn machines(&self) -> &[MachineSpec] {
        &self.machines
    }

    pub fn machine_index(&self, name: &str) -> Option<usize> {
        self.machines.iter().position(|m| m.name == name)
    }

    pub fn machine_of(&self, id: InstanceId) -> &MachineSpec {
        let inst = self.instance(id);
        &self.machines[inst.machine]
    }

    pub fn instances(&self) -> &[ServiceInstance] {
        &self.instances
    }

    pub fn instance(&self, id: InstanceId) -> &ServiceInstance {
        self.instances
            .iter()
            .find(|i| i.id == id)
            .expect("unknown instance id")
    }

    /// Deploy one instance of `sla` on the named machine. Checks GPU and
    /// capacity constraints against remaining (unallocated) resources.
    pub fn deploy_on(
        &mut self,
        sla: &ServiceSla,
        machine_name: &str,
    ) -> Result<InstanceId, String> {
        let mi = self
            .machine_index(machine_name)
            .ok_or_else(|| format!("unknown machine {machine_name}"))?;
        let machine = &self.machines[mi];
        if !sla.admissible(machine) {
            return Err(format!(
                "SLA for {} not admissible on {machine_name}",
                sla.service
            ));
        }
        let (cpu_used, mem_used) = self.allocated[mi];
        if cpu_used + sla.cpu_cores > machine.cpu_cores as f64
            || mem_used + sla.memory_gb > machine.memory_gb
        {
            return Err(format!(
                "{machine_name} out of capacity for {}",
                sla.service
            ));
        }
        self.allocated[mi] = (cpu_used + sla.cpu_cores, mem_used + sla.memory_gb);
        let replica = self
            .instances
            .iter()
            .filter(|i| i.service == sla.service)
            .count();
        let id = InstanceId(self.next_id);
        self.next_id += 1;
        self.instances.push(ServiceInstance {
            id,
            service: sla.service.clone(),
            replica,
            machine: mi,
            state: InstanceState::Running,
        });
        Ok(id)
    }

    /// Deploy a whole placement spec; returns ids per service in
    /// placement order. Fails atomically-ish: errors abort the remainder.
    pub fn deploy_placement(
        &mut self,
        slas: &[ServiceSla],
        placement: &PlacementSpec,
    ) -> Result<Vec<(String, Vec<InstanceId>)>, String> {
        let mut out = Vec::new();
        for (service, machines) in &placement.assignments {
            let sla = slas
                .iter()
                .find(|s| &s.service == service)
                .ok_or_else(|| format!("no SLA for service {service}"))?;
            let mut ids = Vec::new();
            for m in machines {
                ids.push(self.deploy_on(sla, m)?);
            }
            out.push((service.clone(), ids));
        }
        Ok(out)
    }

    /// Running instances of a service, replica-ordered.
    pub fn replicas_of(&self, service: &str) -> Vec<InstanceId> {
        let mut v: Vec<_> = self
            .instances
            .iter()
            .filter(|i| i.service == service && i.state == InstanceState::Running)
            .collect();
        v.sort_by_key(|i| i.replica);
        v.iter().map(|i| i.id).collect()
    }

    /// Mark an instance failed (simulated crash).
    pub fn fail_instance(&mut self, id: InstanceId) {
        let inst = self
            .instances
            .iter_mut()
            .find(|i| i.id == id)
            .expect("unknown instance id");
        inst.state = InstanceState::Failed;
    }

    /// Oakestra-style self-healing: re-deploy every failed instance on
    /// its original machine, returning `(old, new)` id pairs.
    pub fn redeploy_failed(&mut self, slas: &[ServiceSla]) -> Vec<(InstanceId, InstanceId)> {
        let failed: Vec<(InstanceId, String, usize)> = self
            .instances
            .iter()
            .filter(|i| i.state == InstanceState::Failed)
            .map(|i| (i.id, i.service.clone(), i.machine))
            .collect();
        let mut out = Vec::new();
        for (old_id, service, machine) in failed {
            let machine_name = self.machines[machine].name.clone();
            // The failed instance's resources are released before re-admission.
            if let Some(sla) = slas.iter().find(|s| s.service == service) {
                let (c, m) = self.allocated[machine];
                self.allocated[machine] =
                    ((c - sla.cpu_cores).max(0.0), (m - sla.memory_gb).max(0.0));
                if let Ok(new_id) = self.deploy_on(sla, &machine_name) {
                    out.push((old_id, new_id));
                }
            }
            self.instances.retain(|i| i.id != old_id);
        }
        out
    }

    /// Hardware meters of machine `mi`.
    pub fn meters_mut(&mut self, mi: usize) -> &mut MachineMeters {
        &mut self.meters[mi]
    }

    /// Snapshot normalized hardware utilization per machine name:
    /// `(cpu %, gpu %, memory GB)`.
    pub fn hardware_snapshot(&mut self, now: SimTime) -> HashMap<String, (f64, f64, f64)> {
        let names: Vec<String> = self.machines.iter().map(|m| m.name.clone()).collect();
        names
            .into_iter()
            .enumerate()
            .map(|(i, n)| {
                let m = &mut self.meters[i];
                (n, (m.cpu.percent(now), m.gpu.percent(now), m.memory_gb))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slas() -> Vec<ServiceSla> {
        vec![
            ServiceSla::new("primary", 1.0, 1.0, false),
            ServiceSla::new("sift", 2.0, 4.0, true),
        ]
    }

    fn cluster() -> Cluster {
        Cluster::testbed(NodeId(1), NodeId(2), NodeId(3))
    }

    #[test]
    fn deploy_on_named_machine() {
        let mut c = cluster();
        let id = c.deploy_on(&slas()[1], "E1").unwrap();
        let inst = c.instance(id);
        assert_eq!(inst.service, "sift");
        assert_eq!(c.machines()[inst.machine].name, "E1");
        assert_eq!(inst.replica, 0);
    }

    #[test]
    fn gpu_service_rejected_on_gpuless_machine() {
        let mut c = Cluster::new(vec![MachineSpec::client_host(NodeId(0))]);
        assert!(c.deploy_on(&slas()[1], "client-host").is_err());
    }

    #[test]
    fn capacity_admission_control() {
        let mut c = cluster();
        let fat = ServiceSla::new("fat", 3.0, 1.0, false);
        // Cloud has 4 cores: one fat fits, two don't.
        assert!(c.deploy_on(&fat, "cloud").is_ok());
        assert!(c.deploy_on(&fat, "cloud").is_err());
    }

    #[test]
    fn placement_spec_deploys_replicas() {
        let mut c = cluster();
        let p = PlacementSpec::replicated(&[("sift", &["E1", "E2"]), ("primary", &["E1"])]);
        let deployed = c.deploy_placement(&slas(), &p).unwrap();
        assert_eq!(deployed.len(), 2);
        assert_eq!(c.replicas_of("sift").len(), 2);
        // Replica ordinals assigned in order.
        let sift_ids = c.replicas_of("sift");
        assert_eq!(c.instance(sift_ids[0]).replica, 0);
        assert_eq!(c.instance(sift_ids[1]).replica, 1);
    }

    #[test]
    fn failure_and_redeploy() {
        let mut c = cluster();
        let id = c.deploy_on(&slas()[1], "E1").unwrap();
        c.fail_instance(id);
        assert!(c.replicas_of("sift").is_empty());
        let healed = c.redeploy_failed(&slas());
        assert_eq!(healed.len(), 1);
        assert_eq!(healed[0].0, id);
        let replicas = c.replicas_of("sift");
        assert_eq!(replicas.len(), 1);
        assert_ne!(replicas[0], id, "new instance gets a fresh id");
        assert_eq!(c.machines()[c.instance(replicas[0]).machine].name, "E1");
    }

    #[test]
    fn unknown_machine_errors() {
        let mut c = cluster();
        assert!(c.deploy_on(&slas()[0], "E9").is_err());
    }

    #[test]
    fn hardware_snapshot_reports_all_machines() {
        let mut c = cluster();
        let snap = c.hardware_snapshot(SimTime::from_secs(1));
        assert_eq!(snap.len(), 3);
        assert!(snap.contains_key("E1"));
        assert_eq!(snap["E2"], (0.0, 0.0, 0.0));
    }

    #[test]
    fn meters_accumulate_busy_time() {
        let mut c = cluster();
        let id = c.deploy_on(&slas()[1], "E1").unwrap();
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_secs(1);
        let mi = c.instance(id).machine;
        c.meters_mut(mi).gpu.begin(t0);
        c.meters_mut(mi).gpu.end(t1);
        let snap = c.hardware_snapshot(t1);
        // One of two GPUs busy the whole second → 50%.
        assert!((snap["E1"].1 - 50.0).abs() < 1e-9);
    }
}
