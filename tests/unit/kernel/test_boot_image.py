"""Pin the filesystem a fresh :class:`Kernel` boots with.

Netlink authentication trusts binaries by path and superuser ownership,
and device mediation keys on the ``/dev`` names devfs assigns, so the boot
image is part of the security model: every inode's kind, owner, mode and
contents are listed here literally.
"""

from repro.kernel import Kernel
from repro.kernel.vfs import Directory, RegularFile

ROOT_ID = (0, 0)
USER_ID = (1000, 1000)

BOOT_IMAGE = [
    ("/", "directory", ROOT_ID, 0o755, None),
    ("/dev", "directory", ROOT_ID, 0o755, None),
    ("/dev/audio-out0", "device", ROOT_ID, 0o666, None),
    ("/dev/mic0", "device", ROOT_ID, 0o666, None),
    ("/dev/sd0", "device", ROOT_ID, 0o666, None),
    ("/dev/video0", "device", ROOT_ID, 0o666, None),
    ("/home", "directory", ROOT_ID, 0o755, None),
    ("/home/user", "directory", USER_ID, 0o755, None),
    ("/sbin", "directory", ROOT_ID, 0o755, None),
    ("/sbin/init", "regular", ROOT_ID, 0o755, b"\x7fELF init"),
    ("/tmp", "directory", ROOT_ID, 0o777, None),
    ("/usr", "directory", ROOT_ID, 0o755, None),
    ("/usr/bin", "directory", ROOT_ID, 0o755, None),
    ("/usr/lib", "directory", ROOT_ID, 0o755, None),
    ("/usr/lib/xorg", "directory", ROOT_ID, 0o755, None),
    ("/usr/lib/xorg/Xorg", "regular", ROOT_ID, 0o755, b"\x7fELF Xorg"),
    ("/usr/sbin", "directory", ROOT_ID, 0o755, None),
    ("/usr/sbin/overhaul-devmapd", "regular", ROOT_ID, 0o755, b"\x7fELF devmapd"),
    ("/var", "directory", ROOT_ID, 0o755, None),
    ("/var/log", "directory", ROOT_ID, 0o755, None),
]


def walk(node, path=""):
    data = bytes(node.data) if isinstance(node, RegularFile) else None
    yield (path or "/", node.kind.value, (node.owner.uid, node.owner.gid), node.mode, data)
    if isinstance(node, Directory):
        for name in sorted(node.entries):
            yield from walk(node.entries[name], f"{path}/{name}")


def test_boot_image_is_pinned():
    kernel = Kernel()
    assert list(walk(kernel.filesystem.root)) == BOOT_IMAGE
    assert kernel.device_paths == {
        "mic0": "/dev/mic0",
        "sda": "/dev/sd0",
        "speaker0": "/dev/audio-out0",
        "video0": "/dev/video0",
    }
    assert kernel.devfs.sensitive_map.sensitive_paths() == ["/dev/mic0", "/dev/video0"]
    assert kernel.udev_helper.updates_sent == 4


def test_boot_inodes_are_created_at_time_zero():
    kernel = Kernel()
    stack = [kernel.filesystem.root]
    while stack:
        node = stack.pop()
        assert node.created_at == node.modified_at == 0
        if isinstance(node, Directory):
            stack.extend(node.entries.values())
