//! The device registry: profiles plus the dynamic, logical device view.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use aorta_data::{Location, Schema};
use aorta_device::{
    Camera, DeviceId, DeviceKind, Mote, OpCostTable, PervasiveLab, Phone, PhysicalStatus,
    RfidReader,
};
use aorta_sim::{LinkModel, SimDuration, SimRng, SimTime};

/// A simulated device of any kind.
///
/// Camera is the large variant (photo history + busy intervals); entries
/// live in one registry map, so the size skew is not worth a level of
/// indirection on every access.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum DeviceSim {
    /// A PTZ network camera.
    Camera(Camera),
    /// A sensor mote.
    Mote(Mote),
    /// A phone.
    Phone(Phone),
    /// An RFID portal reader.
    Rfid(RfidReader),
}

impl DeviceSim {
    /// The device's ID.
    pub fn id(&self) -> DeviceId {
        match self {
            DeviceSim::Camera(c) => c.id(),
            DeviceSim::Mote(m) => m.id(),
            DeviceSim::Phone(p) => p.id(),
            DeviceSim::Rfid(r) => r.id(),
        }
    }

    /// The device kind.
    pub fn kind(&self) -> DeviceKind {
        self.id().kind()
    }

    /// The device's fixed location, when it has one.
    pub fn location(&self) -> Option<Location> {
        match self {
            DeviceSim::Camera(c) => Some(c.mount()),
            DeviceSim::Mote(m) => Some(m.location()),
            DeviceSim::Phone(p) => p.location(),
            DeviceSim::Rfid(r) => Some(r.location()),
        }
    }

    /// Probes the device (§4), sampling its reliability model.
    pub fn probe(&mut self, now: SimTime, rng: &mut SimRng) -> Option<PhysicalStatus> {
        match self {
            DeviceSim::Camera(c) => c.probe(now, rng),
            DeviceSim::Mote(m) => m.probe(now, rng),
            DeviceSim::Phone(p) => p.probe(now, rng),
            DeviceSim::Rfid(r) => r.probe(now, rng),
        }
    }

    /// The camera, if this is one.
    pub fn as_camera(&self) -> Option<&Camera> {
        match self {
            DeviceSim::Camera(c) => Some(c),
            _ => None,
        }
    }

    /// Mutable camera access, if this is one.
    pub fn as_camera_mut(&mut self) -> Option<&mut Camera> {
        match self {
            DeviceSim::Camera(c) => Some(c),
            _ => None,
        }
    }

    /// The mote, if this is one.
    pub fn as_mote(&self) -> Option<&Mote> {
        match self {
            DeviceSim::Mote(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable mote access, if this is one.
    pub fn as_mote_mut(&mut self) -> Option<&mut Mote> {
        match self {
            DeviceSim::Mote(m) => Some(m),
            _ => None,
        }
    }

    /// The phone, if this is one.
    pub fn as_phone(&self) -> Option<&Phone> {
        match self {
            DeviceSim::Phone(p) => Some(p),
            _ => None,
        }
    }

    /// Mutable phone access, if this is one.
    pub fn as_phone_mut(&mut self) -> Option<&mut Phone> {
        match self {
            DeviceSim::Phone(p) => Some(p),
            _ => None,
        }
    }

    /// The RFID reader, if this is one.
    pub fn as_rfid(&self) -> Option<&RfidReader> {
        match self {
            DeviceSim::Rfid(r) => Some(r),
            _ => None,
        }
    }

    /// Mutable RFID reader access, if this is one.
    pub fn as_rfid_mut(&mut self) -> Option<&mut RfidReader> {
        match self {
            DeviceSim::Rfid(r) => Some(r),
            _ => None,
        }
    }
}

impl From<Camera> for DeviceSim {
    fn from(c: Camera) -> Self {
        DeviceSim::Camera(c)
    }
}
impl From<Mote> for DeviceSim {
    fn from(m: Mote) -> Self {
        DeviceSim::Mote(m)
    }
}
impl From<Phone> for DeviceSim {
    fn from(p: Phone) -> Self {
        DeviceSim::Phone(p)
    }
}
impl From<RfidReader> for DeviceSim {
    fn from(r: RfidReader) -> Self {
        DeviceSim::Rfid(r)
    }
}

/// The source of [`DeviceRegistry::generation`] stamps, shared by every
/// registry of the process. A unique-id counter that orders nothing else.
static GENERATIONS: AtomicU64 = AtomicU64::new(0);

fn next_generation() -> u64 {
    GENERATIONS.fetch_add(1, Ordering::Relaxed) + 1
}

/// A registered device plus its registry-side metadata.
#[derive(Debug, Clone)]
pub struct DeviceEntry {
    /// The simulated device.
    pub sim: DeviceSim,
    /// When the device joined the network.
    pub joined_at: SimTime,
    /// Administrative online flag — devices "may join, move around, or leave
    /// the network dynamically" (§4); an offline device never answers.
    /// Private: only [`DeviceRegistry::set_online`] flips it, so every
    /// change bumps the registry's [`generation`](DeviceRegistry::generation).
    online: bool,
}

impl DeviceEntry {
    /// Whether the device is administratively online (see
    /// [`DeviceRegistry::set_online`]).
    pub fn online(&self) -> bool {
        self.online
    }
}

/// The registry at the heart of the communication layer.
///
/// Holds every registered device, the per-kind profiles (catalog schema,
/// atomic-operation cost table, probe TIMEOUT, link model) and supports
/// dynamic join/leave.
#[derive(Clone)]
pub struct DeviceRegistry {
    devices: BTreeMap<DeviceId, DeviceEntry>,
    schemas: BTreeMap<DeviceKind, Schema>,
    cost_tables: BTreeMap<DeviceKind, OpCostTable>,
    probe_timeouts: BTreeMap<DeviceKind, SimDuration>,
    links: BTreeMap<DeviceKind, LinkModel>,
    /// Replaced by every change to which devices are registered or online
    /// (see [`DeviceRegistry::generation`]).
    generation: u64,
}

impl DeviceRegistry {
    /// An empty registry with default per-kind profiles.
    pub fn new() -> Self {
        let mut schemas = BTreeMap::new();
        let mut cost_tables = BTreeMap::new();
        let mut probe_timeouts = BTreeMap::new();
        let mut links = BTreeMap::new();
        for kind in DeviceKind::ALL {
            // Profiles are generated/parsed through the XML catalog format,
            // exactly as an administrator would register them (§3.1).
            let catalog = aorta_device::catalog_for(kind);
            let schema =
                aorta_device::parse_catalog(&catalog).expect("built-in catalogs always parse");
            schemas.insert(kind, schema);
            cost_tables.insert(kind, OpCostTable::defaults_for(kind));
            probe_timeouts.insert(kind, default_probe_timeout(kind));
            links.insert(kind, default_link(kind));
        }
        DeviceRegistry {
            devices: BTreeMap::new(),
            schemas,
            cost_tables,
            probe_timeouts,
            links,
            generation: next_generation(),
        }
    }

    /// A registry populated from a [`PervasiveLab`] fixture.
    pub fn from_lab(lab: PervasiveLab) -> Self {
        let mut reg = DeviceRegistry::new();
        for c in lab.cameras {
            reg.register(c.into(), SimTime::ZERO);
        }
        for m in lab.motes {
            reg.register(m.into(), SimTime::ZERO);
        }
        for p in lab.phones {
            reg.register(p.into(), SimTime::ZERO);
        }
        reg
    }

    /// Registers (joins) a device.
    ///
    /// Re-registering an existing ID replaces the previous entry, matching
    /// "profiles … are updated dynamically by the system administrator".
    pub fn register(&mut self, sim: DeviceSim, now: SimTime) -> DeviceId {
        let id = sim.id();
        self.generation = next_generation();
        self.devices.insert(
            id,
            DeviceEntry {
                sim,
                joined_at: now,
                online: true,
            },
        );
        id
    }

    /// Unregisters (leaves) a device; returns it if present.
    pub fn unregister(&mut self, id: DeviceId) -> Option<DeviceSim> {
        self.extract(id).map(|e| e.sim)
    }

    /// Removes a device *with* its registration state (join time, online
    /// flag) intact — the first half of an ownership transfer between
    /// registries. Pair with [`DeviceRegistry::adopt`] on the receiving
    /// side; plain [`DeviceRegistry::unregister`] would forget the state.
    pub fn extract(&mut self, id: DeviceId) -> Option<DeviceEntry> {
        let entry = self.devices.remove(&id)?;
        self.generation = next_generation();
        Some(entry)
    }

    /// Installs an entry extracted from another registry, preserving its
    /// join time and online state — the second half of an ownership
    /// transfer. Replaces any existing entry with the same ID.
    pub fn adopt(&mut self, entry: DeviceEntry) -> DeviceId {
        let id = entry.sim.id();
        self.generation = next_generation();
        self.devices.insert(id, entry);
        id
    }

    /// Marks a device online/offline without removing its registration.
    ///
    /// Returns `false` when the device is unknown.
    pub fn set_online(&mut self, id: DeviceId, online: bool) -> bool {
        match self.devices.get_mut(&id) {
            Some(e) => {
                e.online = online;
                self.generation = next_generation();
                true
            }
            None => false,
        }
    }

    /// A stamp that every membership change replaces: [`register`],
    /// [`unregister`], [`extract`], [`adopt`] and [`set_online`] bump it;
    /// reads, [`get_mut`] and scans do not. While it holds still, a scan of
    /// any kind yields one tuple per device for the same devices in the same
    /// order, and their non-sensory attributes are unchanged — what lets a
    /// caller keep a result derived from those across scans. Stamps are
    /// unique within the process, so a registry put in another's place
    /// shows a different one unless it is an unchanged clone.
    ///
    /// Derived bookkeeping, not device state: it takes no part in a
    /// registry's `Debug` rendering.
    ///
    /// [`register`]: DeviceRegistry::register
    /// [`unregister`]: DeviceRegistry::unregister
    /// [`extract`]: DeviceRegistry::extract
    /// [`adopt`]: DeviceRegistry::adopt
    /// [`set_online`]: DeviceRegistry::set_online
    /// [`get_mut`]: DeviceRegistry::get_mut
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The entry for a device.
    pub fn get(&self, id: DeviceId) -> Option<&DeviceEntry> {
        self.devices.get(&id)
    }

    /// Mutable entry access.
    pub fn get_mut(&mut self, id: DeviceId) -> Option<&mut DeviceEntry> {
        self.devices.get_mut(&id)
    }

    /// All devices of a kind, in ID order.
    pub fn of_kind(&self, kind: DeviceKind) -> impl Iterator<Item = &DeviceEntry> {
        self.devices.values().filter(move |e| e.sim.kind() == kind)
    }

    /// IDs of all devices of a kind, in order.
    pub fn ids_of_kind(&self, kind: DeviceKind) -> Vec<DeviceId> {
        self.of_kind(kind).map(|e| e.sim.id()).collect()
    }

    /// Total registered devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when no devices are registered.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The virtual-table schema for a kind (from its catalog profile).
    pub fn schema(&self, kind: DeviceKind) -> &Schema {
        &self.schemas[&kind]
    }

    /// The atomic-operation cost table for a kind.
    pub fn cost_table(&self, kind: DeviceKind) -> &OpCostTable {
        &self.cost_tables[&kind]
    }

    /// Replaces the atomic-operation cost table for a kind (the
    /// administrator's profile update).
    pub fn set_cost_table(&mut self, kind: DeviceKind, table: OpCostTable) {
        self.cost_tables.insert(kind, table);
    }

    /// The probe TIMEOUT for a kind (§4: "a system-provided TIMEOUT value is
    /// set for each type of devices").
    pub fn probe_timeout(&self, kind: DeviceKind) -> SimDuration {
        self.probe_timeouts[&kind]
    }

    /// Overrides the probe TIMEOUT for a kind.
    pub fn set_probe_timeout(&mut self, kind: DeviceKind, timeout: SimDuration) {
        self.probe_timeouts.insert(kind, timeout);
    }

    /// The link model used to reach devices of a kind.
    pub fn link(&self, kind: DeviceKind) -> &LinkModel {
        &self.links[&kind]
    }

    /// Overrides the link model for a kind.
    pub fn set_link(&mut self, kind: DeviceKind, link: LinkModel) {
        self.links.insert(kind, link);
    }

    /// Convenience: mutable access to a camera.
    pub fn camera_mut(&mut self, id: DeviceId) -> Option<&mut Camera> {
        self.get_mut(id).and_then(|e| e.sim.as_camera_mut())
    }

    /// Convenience: shared access to a camera.
    pub fn camera(&self, id: DeviceId) -> Option<&Camera> {
        self.get(id).and_then(|e| e.sim.as_camera())
    }
}

impl std::fmt::Debug for DeviceRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceRegistry")
            .field("devices", &self.devices)
            .field("schemas", &self.schemas)
            .field("cost_tables", &self.cost_tables)
            .field("probe_timeouts", &self.probe_timeouts)
            .field("links", &self.links)
            .finish()
    }
}

impl Default for DeviceRegistry {
    fn default() -> Self {
        DeviceRegistry::new()
    }
}

fn default_probe_timeout(kind: DeviceKind) -> SimDuration {
    match kind {
        DeviceKind::Camera => SimDuration::from_millis(500),
        DeviceKind::Sensor => SimDuration::from_millis(300),
        DeviceKind::Phone => SimDuration::from_secs(5),
        DeviceKind::Rfid => SimDuration::from_millis(400),
    }
}

fn default_link(kind: DeviceKind) -> LinkModel {
    match kind {
        // Ethernet to the cameras: fast, effectively lossless at this layer
        // (connect failures are modelled inside the camera).
        DeviceKind::Camera => LinkModel::new(
            SimDuration::from_millis(2),
            SimDuration::from_millis(1),
            0.0,
        )
        .with_bytes_per_sec(10_000_000),
        // MICA2 radio: slow, lossy per hop (per-hop loss also modelled in
        // the mote; link-level loss covers the base-station leg).
        DeviceKind::Sensor => LinkModel::new(
            SimDuration::from_millis(15),
            SimDuration::from_millis(10),
            0.02,
        )
        .with_bytes_per_sec(38_400 / 8),
        // Cell network: high latency, some loss.
        DeviceKind::Phone => LinkModel::new(
            SimDuration::from_millis(300),
            SimDuration::from_millis(200),
            0.01,
        )
        .with_bytes_per_sec(100_000),
        // Wired portal reader: serial-line latencies, no loss at this layer.
        DeviceKind::Rfid => LinkModel::new(
            SimDuration::from_millis(5),
            SimDuration::from_millis(2),
            0.0,
        )
        .with_bytes_per_sec(1_000_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_lab_registers_everything() {
        let reg = DeviceRegistry::from_lab(PervasiveLab::standard());
        assert_eq!(reg.len(), 13);
        assert_eq!(reg.ids_of_kind(DeviceKind::Camera).len(), 2);
        assert_eq!(reg.ids_of_kind(DeviceKind::Sensor).len(), 10);
        assert_eq!(reg.ids_of_kind(DeviceKind::Phone).len(), 1);
    }

    #[test]
    fn join_and_leave_dynamics() {
        let mut reg = DeviceRegistry::new();
        assert!(reg.is_empty());
        let id = reg.register(
            Camera::ceiling_mounted(7, Location::ORIGIN).into(),
            SimTime::ZERO,
        );
        assert_eq!(id, DeviceId::camera(7));
        assert_eq!(reg.len(), 1);
        assert!(reg.get(id).unwrap().online());
        assert!(reg.set_online(id, false));
        assert!(!reg.get(id).unwrap().online());
        assert!(reg.unregister(id).is_some());
        assert!(reg.get(id).is_none());
        assert!(!reg.set_online(id, false));
        assert!(reg.unregister(id).is_none());
    }

    #[test]
    fn profiles_available_per_kind() {
        let reg = DeviceRegistry::new();
        for kind in DeviceKind::ALL {
            assert_eq!(reg.schema(kind).table(), kind.table_name());
            assert!(!reg.cost_table(kind).is_empty());
            assert!(reg.probe_timeout(kind) > SimDuration::ZERO);
        }
        // Phones tolerate much longer probe delays than motes.
        assert!(reg.probe_timeout(DeviceKind::Phone) > reg.probe_timeout(DeviceKind::Sensor));
    }

    #[test]
    fn reregistering_replaces() {
        let mut reg = DeviceRegistry::new();
        let cam = Camera::ceiling_mounted(0, Location::new(1.0, 1.0, 3.0));
        reg.register(cam.into(), SimTime::ZERO);
        let cam2 = Camera::ceiling_mounted(0, Location::new(5.0, 5.0, 3.0));
        reg.register(cam2.into(), SimTime::from_micros(10));
        assert_eq!(reg.len(), 1);
        let mount = reg.camera(DeviceId::camera(0)).unwrap().mount();
        assert_eq!(mount, Location::new(5.0, 5.0, 3.0));
    }

    #[test]
    fn typed_accessors() {
        let mut reg = DeviceRegistry::from_lab(PervasiveLab::standard());
        let cam_id = DeviceId::camera(0);
        assert!(reg.camera(cam_id).is_some());
        assert!(reg.camera_mut(cam_id).is_some());
        let mote_id = DeviceId::sensor(0);
        assert!(reg.get(mote_id).unwrap().sim.as_mote().is_some());
        assert!(reg.get(mote_id).unwrap().sim.as_camera().is_none());
        let phone_id = DeviceId::phone(0);
        assert!(reg.get_mut(phone_id).unwrap().sim.as_phone_mut().is_some());
    }

    #[test]
    fn device_sim_metadata() {
        let sim: DeviceSim = Mote::new(3, Location::new(1.0, 2.0, 1.0), 2).into();
        assert_eq!(sim.kind(), DeviceKind::Sensor);
        assert_eq!(sim.location(), Some(Location::new(1.0, 2.0, 1.0)));
        let phone: DeviceSim = Phone::new(0, "x").into();
        assert_eq!(phone.location(), None);
    }

    #[test]
    fn membership_mutators_bump_the_generation_and_reads_do_not() {
        let mut reg = DeviceRegistry::from_lab(PervasiveLab::standard());
        let cam = DeviceId::camera(1);
        let mut last = reg.generation();
        let mut bumped = |reg: &DeviceRegistry, what: &str| {
            assert_ne!(reg.generation(), last, "{what} must bump the generation");
            last = reg.generation();
        };
        assert!(reg.set_online(cam, false));
        bumped(&reg, "set_online");
        let entry = reg.extract(cam).expect("camera-1 registered");
        bumped(&reg, "extract");
        reg.adopt(entry);
        bumped(&reg, "adopt");
        reg.register(
            Camera::ceiling_mounted(9, Location::ORIGIN).into(),
            SimTime::ZERO,
        );
        bumped(&reg, "register");
        assert!(reg.unregister(DeviceId::camera(9)).is_some());
        bumped(&reg, "unregister");

        // Reads, mutable access to a device's own state and scans leave
        // membership alone.
        let still = reg.generation();
        assert!(reg.get(cam).is_some());
        assert!(reg.get_mut(cam).is_some());
        assert!(reg.camera_mut(DeviceId::camera(0)).is_some());
        let mut rng = SimRng::seed(1);
        for kind in DeviceKind::ALL {
            crate::ScanOperator::new(kind).run(&mut reg, SimTime::ZERO, &mut rng);
        }
        // A call that names no device changes nothing either.
        assert!(!reg.set_online(DeviceId::camera(77), false));
        assert!(reg.extract(DeviceId::camera(77)).is_none());
        assert_eq!(reg.generation(), still);
        // Stamps are unique per registry: only an unchanged clone shares one.
        assert_eq!(reg.clone().generation(), still);
        assert_ne!(DeviceRegistry::new().generation(), still);
    }

    #[test]
    fn extract_adopt_preserves_registration_state() {
        let mut a = DeviceRegistry::from_lab(PervasiveLab::standard());
        let mut b = DeviceRegistry::new();
        let id = DeviceId::camera(1);
        a.set_online(id, false);
        let entry = a.extract(id).expect("camera-1 registered");
        assert!(a.get(id).is_none(), "extract must remove the device");
        let joined_at = entry.joined_at;
        assert_eq!(b.adopt(entry), id);
        let adopted = b.get(id).expect("adopt must install the device");
        assert_eq!(adopted.joined_at, joined_at);
        assert!(!adopted.online(), "online state must survive the transfer");
    }
}
