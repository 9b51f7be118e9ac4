"""Unit tests for the device model."""

import pytest

from repro.kernel.device import (
    Device,
    DeviceClass,
    DeviceInventory,
    standard_inventory,
)
from repro.kernel.errors import InvalidArgument, ResourceBusy


class TestDeviceClass:
    def test_sensitive_classes(self):
        assert DeviceClass.MICROPHONE.sensitive
        assert DeviceClass.CAMERA.sensitive

    def test_non_sensitive_classes(self):
        assert not DeviceClass.SPEAKER.sensitive
        assert not DeviceClass.DISK.sensitive
        assert not DeviceClass.KEYBOARD.sensitive


class TestDevice:
    def test_open_records_access(self):
        mic = Device("mic0", DeviceClass.MICROPHONE)
        mic.open(pid=42, comm="app", now=100)
        assert len(mic.access_log) == 1
        assert mic.access_log[0].pid == 42
        assert mic.access_log[0].timestamp == 100

    def test_stream_is_deterministic_and_progressive(self):
        a = Device("mic0", DeviceClass.MICROPHONE)
        b = Device("mic0b", DeviceClass.MICROPHONE)
        handle_a = a.open(1, "x", 0)
        first = handle_a.read(8)
        second = handle_a.read(8)
        assert first != second  # stream advances
        # Same serial ordering produces the same stream.
        assert len(first) == 8

    @pytest.mark.parametrize("serial", [0, 1, 9, 200])
    @pytest.mark.parametrize("start", [0, 1, 100, 250, 255, 256, 300, 1023])
    def test_stream_matches_the_per_byte_formula(self, serial, start):
        """The ramp slice equals ``(serial*31 + position) % 256``, byte for byte."""
        device = Device("mic0", DeviceClass.MICROPHONE)
        device.serial = serial
        device._stream_position = start
        position = start
        for count in (0, 1, 255, 256, 257, 1000):
            expected = bytes((serial * 31 + position + i) % 256 for i in range(count))
            assert device.generate(count) == expected
            position += count

    def test_release_idempotent(self):
        mic = Device("mic0", DeviceClass.MICROPHONE)
        handle = mic.open(1, "x", 0)
        handle.release()
        handle.release()
        assert mic.open_count == 0

    def test_read_after_release_rejected(self):
        mic = Device("mic0", DeviceClass.MICROPHONE)
        handle = mic.open(1, "x", 0)
        handle.release()
        with pytest.raises(InvalidArgument):
            handle.read(4)

    def test_negative_read_rejected(self):
        mic = Device("mic0", DeviceClass.MICROPHONE)
        handle = mic.open(1, "x", 0)
        with pytest.raises(InvalidArgument):
            handle.read(-1)

    def test_exclusive_device(self):
        cam = Device("video0", DeviceClass.CAMERA, exclusive=True)
        cam.open(1, "a", 0)
        with pytest.raises(ResourceBusy):
            cam.open(2, "b", 0)

    def test_exclusive_reopens_after_release(self):
        cam = Device("video0", DeviceClass.CAMERA, exclusive=True)
        handle = cam.open(1, "a", 0)
        handle.release()
        cam.open(2, "b", 0)  # no raise


class TestInventory:
    def test_standard_inventory_contents(self):
        inventory = standard_inventory()
        assert inventory.get("mic0").device_class is DeviceClass.MICROPHONE
        assert inventory.get("video0").device_class is DeviceClass.CAMERA
        assert inventory.get("missing") is None

    def test_by_class(self):
        inventory = standard_inventory()
        mics = inventory.by_class(DeviceClass.MICROPHONE)
        assert [d.name for d in mics] == ["mic0"]

    def test_duplicate_name_rejected(self):
        inventory = DeviceInventory()
        inventory.add(Device("mic0", DeviceClass.MICROPHONE))
        with pytest.raises(InvalidArgument):
            inventory.add(Device("mic0", DeviceClass.MICROPHONE))
