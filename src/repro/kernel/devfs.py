"""The device filesystem (`/dev`) and the trusted device-mapping helper.

Section IV-B ("Device mediation"): "modern Linux distributions often make
use of dynamic device name assignments at runtime using frameworks such as
udev.  Therefore, our prototype relies on a trusted helper application,
owned by the superuser and protected against unauthorized modification using
normal user-based access control, to manage this mapping.  It is invoked in
response to changes in the device filesystem... and propagates these changes
to the kernel via an authenticated netlink channel."

Three pieces reproduce that:

- :class:`SensitiveDeviceMap` -- the kernel-side map from filesystem path to
  device class; the *only* writer is the authenticated udev-helper channel.
- :class:`DevfsManager` -- populates ``/dev``, creates nodes with dynamic names
  (``video0``, ``video1``, ...), and emits change events.
- :class:`UdevHelper` -- the superuser-owned userspace helper that reacts to
  devfs changes and pushes map updates over netlink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.kernel.credentials import ROOT
from repro.kernel.device import Device, DeviceClass, DeviceInventory
from repro.kernel.errors import InvalidArgument, NoDevice, OperationNotPermitted
from repro.kernel.netlink import (
    UDEV_HELPER_PATH,
    NetlinkChannel,
    NetlinkMessage,
    NetlinkSubsystem,
)
from repro.kernel.task import Task
from repro.kernel.vfs import DeviceNode, Directory, Filesystem
from repro.sim.time import Timestamp

DEV_DIR = "/dev"

#: netlink message type used by the helper.
MSG_DEVICE_MAP_UPDATE = "overhaul.device-map-update"


class SensitiveDeviceMap:
    """Kernel-side map: device path -> :class:`DeviceClass`.

    Consulted by the augmented ``open()`` to decide whether a path is a
    sensitive device.  Updates are accepted only from the udev-helper
    netlink channel; that restriction is enforced in the kernel handler
    (:meth:`DevfsManager.install_kernel_handler`), not here.
    """

    def __init__(self) -> None:
        self._by_path: Dict[str, DeviceClass] = {}
        #: path -> "label:path" mediation operation string, maintained by
        #: the two write paths below so the augmented-open hot path answers
        #: "sensitive? and under what name?" with a single dict probe.
        #: Keyed per *current* registration: re-registering a path under a
        #: different class replaces the entry, so the index can never serve
        #: a stale operation name (unlike a fill-on-first-use cache).
        self._operation_names: Dict[str, str] = {}
        self.update_count = 0

    def set_mapping(self, path: str, device_class: DeviceClass) -> None:
        self._by_path[path] = device_class
        if device_class.sensitive:
            self._operation_names[path] = f"{device_class.label}:{path}"
        else:
            self._operation_names.pop(path, None)
        self.update_count += 1

    def drop_mapping(self, path: str) -> None:
        self._by_path.pop(path, None)
        self._operation_names.pop(path, None)
        self.update_count += 1

    def classify(self, path: str) -> Optional[DeviceClass]:
        """The device class registered for *path*, or None."""
        return self._by_path.get(path)

    def operation_name(self, path: str) -> Optional[str]:
        """The mediation operation string for *path*, or None.

        None means "not a sensitive device" (unknown path or a registered
        non-sensitive class) -- the augmented open passes it untouched.
        """
        return self._operation_names.get(path)

    def is_sensitive(self, path: str) -> bool:
        """True if *path* maps to a class Overhaul protects."""
        device_class = self._by_path.get(path)
        return device_class is not None and device_class.sensitive

    def sensitive_paths(self) -> List[str]:
        """All currently-registered sensitive device paths, sorted."""
        return sorted(p for p, c in self._by_path.items() if c.sensitive)


@dataclass
class DevfsChange:
    """One hotplug-style event: a node appeared or disappeared."""

    action: str  # "add" | "remove"
    path: str
    device_class: DeviceClass
    timestamp: Timestamp


_CLASS_NAME_PREFIXES = {
    DeviceClass.MICROPHONE: "mic",
    DeviceClass.CAMERA: "video",
    DeviceClass.SPEAKER: "audio-out",
    DeviceClass.KEYBOARD: "input-kbd",
    DeviceClass.MOUSE: "input-mouse",
    DeviceClass.DISK: "sd",
}


class DevfsManager:
    """Populates ``/dev`` (made by the boot image) and manages dynamic node naming."""

    def __init__(
        self, filesystem: Filesystem, netlink: NetlinkSubsystem, dev_dir: Directory
    ) -> None:
        self._filesystem = filesystem
        self._netlink = netlink
        #: The mounted ``/dev`` directory; nodes are linked straight into it.
        self._dev_dir = dev_dir
        self.sensitive_map = SensitiveDeviceMap()
        self._next_index: Dict[DeviceClass, int] = {}
        self._node_paths: Dict[str, str] = {}  # device name -> /dev path
        self._helper: Optional["UdevHelper"] = None
        self.install_kernel_handler()

    def install_kernel_handler(self) -> None:
        """Register the netlink handler that applies device-map updates.

        Only the channel authenticated as the udev helper may update the
        map; the display-manager channel (or any other) is refused.
        """

        def handle_update(channel: NetlinkChannel, message: NetlinkMessage) -> None:
            if channel.label != "udev-helper":
                raise OperationNotPermitted(
                    f"device-map updates only accepted from the udev helper, "
                    f"not {channel.label!r}"
                )
            payload = message.payload
            device_class = payload["device_class"]
            if not isinstance(device_class, DeviceClass):
                raise InvalidArgument("device_class payload must be a DeviceClass")
            if payload["action"] == "add":
                self.sensitive_map.set_mapping(payload["path"], device_class)
            elif payload["action"] == "remove":
                self.sensitive_map.drop_mapping(payload["path"])
            else:
                raise InvalidArgument(f"unknown devfs action {payload['action']!r}")

        self._netlink.register_kernel_handler(MSG_DEVICE_MAP_UPDATE, handle_update)

    def attach_helper(self, helper: "UdevHelper") -> None:
        """Wire the userspace helper that receives devfs change events."""
        self._helper = helper

    def node_path(self, device_name: str) -> str:
        """The /dev path currently assigned to *device_name*."""
        try:
            return self._node_paths[device_name]
        except KeyError:
            raise NoDevice(f"device {device_name!r} has no /dev node") from None

    def _create_node(self, device: Device, now: Timestamp) -> DevfsChange:
        """Create the /dev node for *device*; return the change event."""
        prefix = _CLASS_NAME_PREFIXES[device.device_class]
        index = self._next_index.get(device.device_class, 0)
        self._next_index[device.device_class] = index + 1
        name = f"{prefix}{index}"
        path = f"{DEV_DIR}/{name}"
        # Desktop distributions grant the seated user device access via
        # logind ACLs / the audio+video groups; 0o666 models that, and is
        # the paper's premise -- classic UNIX checks *pass* for user-level
        # malware, which is exactly the gap Overhaul closes.
        self._filesystem.link(self._dev_dir, name, DeviceNode(ROOT, 0o666, now, device), path)
        self._node_paths[device.name] = path
        return DevfsChange("add", path, device.device_class, now)

    def add_device(self, device: Device, now: Timestamp) -> str:
        """Create a /dev node for *device* with a dynamic name.

        Returns the assigned path and notifies the helper (which, in turn,
        updates the kernel's sensitive map over netlink -- the full udev
        round trip, so a compromised or missing helper genuinely degrades
        mediation, as it would on the real system).
        """
        change = self._create_node(device, now)
        if self._helper is not None:
            self._helper.on_devfs_change(change)
        return change.path

    def remove_device(self, device_name: str, now: Timestamp) -> None:
        """Remove the node for *device_name* (device unplugged)."""
        path = self.node_path(device_name)
        inode = self._filesystem.resolve(path)
        if not isinstance(inode, DeviceNode):
            raise NoDevice(f"{path} is not a device node")
        device = inode.device
        parent, name = self._filesystem.resolve_parent(path)
        del parent.entries[name]
        del self._node_paths[device_name]
        if self._helper is not None:
            self._helper.on_devfs_change(
                DevfsChange("remove", path, device.device_class, now)  # type: ignore[union-attr]
            )

    def populate(self, inventory: DeviceInventory, now: Timestamp) -> Dict[str, str]:
        """Create nodes for every device in *inventory*; name -> path map.

        The coldplug burst: all nodes are created first and the helper is
        notified with one batched flush (one authenticated netlink round
        instead of one per device), matching how udev replays the backlog
        of kernel uevents at boot.  Map contents and update counts are
        identical to per-device delivery.
        """
        paths: Dict[str, str] = {}
        changes: List[DevfsChange] = []
        for name, device in sorted(inventory.devices.items()):
            change = self._create_node(device, now)
            paths[name] = change.path
            changes.append(change)
        if self._helper is not None and changes:
            self._helper.on_devfs_changes(changes)
        return paths


class UdevHelper:
    """The trusted userspace helper managing the device map.

    It runs as a superuser-owned task whose executable lives at
    :data:`~repro.kernel.netlink.UDEV_HELPER_PATH`; the netlink subsystem
    authenticates it by that mapping.  All it does is translate devfs change
    events into kernel map updates -- deliberately tiny TCB.
    """

    def __init__(self, task: Task, netlink: NetlinkSubsystem) -> None:
        if task.exe_path != UDEV_HELPER_PATH:
            raise OperationNotPermitted(
                f"udev helper must run the trusted binary {UDEV_HELPER_PATH}, "
                f"got {task.exe_path}"
            )
        self.task = task
        self._channel = netlink.connect(task)
        self.updates_sent = 0

    def on_devfs_change(self, change: DevfsChange) -> None:
        """Push one devfs change to the kernel map via netlink."""
        self._channel.send_to_kernel(
            self.task,
            MSG_DEVICE_MAP_UPDATE,
            {
                "action": change.action,
                "path": change.path,
                "device_class": change.device_class,
            },
        )
        self.updates_sent += 1

    def on_devfs_changes(self, changes: List[DevfsChange]) -> None:
        """Push a burst of devfs changes in one batched netlink flush.

        Used for the boot-time coldplug replay; per-change map effects and
        the ``updates_sent`` count match a loop of single pushes.
        """
        payloads = [
            {
                "action": change.action,
                "path": change.path,
                "device_class": change.device_class,
            }
            for change in changes
        ]
        self._channel.send_many_to_kernel(self.task, MSG_DEVICE_MAP_UPDATE, payloads)
        self.updates_sent += len(payloads)
