"""Simulated hardware devices: microphones, cameras, and friends.

The paper protects "sensitive hardware devices... typical examples on
desktop operating systems include the camera and microphone" (Section
III-C).  Devices here produce deterministic synthetic data streams so the
long-term empirical study (Section V-D) can verify *what* a spying process
actually captured -- e.g. the unprotected machine's malware log contains
real microphone sample bytes while the protected machine's contains none.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.kernel.errors import InvalidArgument, ResourceBusy
from repro.sim.time import Timestamp


class DeviceClass(enum.Enum):
    """Hardware device categories known to the simulation.

    ``sensitive`` marks the classes Overhaul mediates; the rest exist so the
    benchmarks and false-positive tests can show that non-sensitive device
    opens are untouched.
    """

    MICROPHONE = ("microphone", True)
    CAMERA = ("camera", True)
    SPEAKER = ("speaker", False)
    KEYBOARD = ("keyboard", False)
    MOUSE = ("mouse", False)
    DISK = ("disk", False)

    def __init__(self, label: str, sensitive: bool) -> None:
        self.label = label
        self.sensitive = sensitive


@dataclass
class DeviceAccessRecord:
    """One successful open of a device: who, when."""

    pid: int
    comm: str
    timestamp: Timestamp


_device_serials = itertools.count(0)

#: Two periods of the 0..255 byte ramp: any 256-byte window of it is one
#: period of a device stream, starting at the window's offset.
_RAMP = bytes(range(256)) * 2


class DeviceHandle:
    """A per-open handle; reads produce the device's synthetic stream."""

    def __init__(self, device: "Device", pid: int) -> None:
        self._device = device
        self.pid = pid
        self.released = False

    def read(self, count: int) -> bytes:
        """Read *count* bytes of synthetic device data."""
        if self.released:
            raise InvalidArgument(f"read on released handle for {self._device.name}")
        if count < 0:
            raise InvalidArgument(f"negative read count: {count}")
        return self._device.generate(count)

    def release(self) -> None:
        """Close the handle.  Idempotent."""
        if not self.released:
            self.released = True
            self._device.handle_released(self)


class Device:
    """A hardware device attached to the simulated machine.

    Parameters
    ----------
    name:
        Stable identifier, e.g. ``"mic0"``.
    device_class:
        The :class:`DeviceClass`, which determines Overhaul sensitivity.
    exclusive:
        If True, only one open handle may exist at a time (models devices
        like some V4L cameras); further opens raise EBUSY.
    """

    def __init__(
        self,
        name: str,
        device_class: DeviceClass,
        exclusive: bool = False,
    ) -> None:
        self.name = name
        self.device_class = device_class
        self.exclusive = exclusive
        self.serial = next(_device_serials)
        self.access_log: List[DeviceAccessRecord] = []
        self._open_handles: List[DeviceHandle] = []
        self._stream_position = 0

    @property
    def sensitive(self) -> bool:
        """True if Overhaul mediates opens of this device."""
        return self.device_class.sensitive

    @property
    def open_count(self) -> int:
        """Number of live handles."""
        return len(self._open_handles)

    def open(self, pid: int, comm: str, now: Timestamp) -> DeviceHandle:
        """Open the device for *pid*; records the access.

        Classic UNIX permission checks happen at the VFS layer; Overhaul's
        input-driven check happens in :mod:`repro.kernel.mediation` *before*
        this method is reached.  By the time we are here, access is granted.
        """
        if self.exclusive and self._open_handles:
            raise ResourceBusy(f"device {self.name} is exclusively held")
        handle = DeviceHandle(self, pid)
        self._open_handles.append(handle)
        self.access_log.append(DeviceAccessRecord(pid, comm, now))
        return handle

    def handle_released(self, handle: DeviceHandle) -> None:
        """Internal: drop a released handle from the live set."""
        try:
            self._open_handles.remove(handle)
        except ValueError:
            pass  # already dropped; release is idempotent

    def generate(self, count: int) -> bytes:
        """Produce *count* bytes of deterministic synthetic stream data.

        The stream is a rolling byte pattern derived from the device serial
        and a monotone position counter, so captured data is attributable to
        (device, position) in experiment assertions.
        """
        offset = (self.serial * 31 + self._stream_position) % 256
        self._stream_position += count
        return (_RAMP[offset : offset + 256] * (count // 256 + 1))[:count]

    def __repr__(self) -> str:
        return f"Device({self.name!r}, class={self.device_class.label}, opens={self.open_count})"


@dataclass
class DeviceInventory:
    """The set of devices attached to a simulated machine."""

    devices: Dict[str, Device] = field(default_factory=dict)

    def add(self, device: Device) -> Device:
        if device.name in self.devices:
            raise InvalidArgument(f"duplicate device name: {device.name}")
        self.devices[device.name] = device
        return device

    def get(self, name: str) -> Optional[Device]:
        return self.devices.get(name)

    def by_class(self, device_class: DeviceClass) -> List[Device]:
        return [d for d in self.devices.values() if d.device_class is device_class]


def standard_inventory() -> DeviceInventory:
    """The default desktop machine: one mic, one camera, one speaker, a disk.

    Mirrors the paper's evaluation machine, which exercised "the microphone
    installed on our testing system" and a camera.
    """
    inventory = DeviceInventory()
    inventory.add(Device("mic0", DeviceClass.MICROPHONE))
    inventory.add(Device("video0", DeviceClass.CAMERA))
    inventory.add(Device("speaker0", DeviceClass.SPEAKER))
    inventory.add(Device("sda", DeviceClass.DISK))
    return inventory
