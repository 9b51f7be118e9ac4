"""Unit tests for the virtual filesystem."""

import pytest

from repro.kernel.credentials import DEFAULT_USER, ROOT, Credentials
from repro.kernel.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    PermissionDenied,
)
from repro.kernel.vfs import FileKind, Filesystem, OpenFile, OpenMode, split_path


@pytest.fixture
def fs():
    filesystem = Filesystem()
    filesystem.makedirs("/home/user", owner=DEFAULT_USER)
    return filesystem


class TestPathResolution:
    def test_resolve_root_children(self, fs):
        assert fs.resolve("/home").kind is FileKind.DIRECTORY

    def test_resolve_nested(self, fs):
        fs.create_file("/home/user/a.txt", owner=DEFAULT_USER)
        assert fs.resolve("/home/user/a.txt").kind is FileKind.REGULAR

    def test_missing_path(self, fs):
        with pytest.raises(FileNotFound):
            fs.resolve("/no/such/path")

    def test_file_as_directory_component(self, fs):
        fs.create_file("/home/user/f", owner=DEFAULT_USER)
        with pytest.raises(NotADirectory):
            fs.resolve("/home/user/f/deeper")

    def test_relative_path_rejected(self, fs):
        with pytest.raises(InvalidArgument):
            fs.resolve("home/user")

    def test_split_path_ignores_empty_components(self):
        assert split_path("//home///user/") == ["home", "user"]

    def test_exists(self, fs):
        assert fs.exists("/home/user")
        assert not fs.exists("/home/nobody")


class TestErrorContract:
    """Errno and message of each failed walk, as the path-rebuilding VFS gave them."""

    @pytest.fixture
    def fs(self, fs):
        fs.create_file("/home/user/f", owner=DEFAULT_USER)
        return fs

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda fs: fs.resolve_parent("/no/such/leaf"), FileNotFound,
             "[ENOENT] /no/such"),
            (lambda fs: fs.resolve_parent("/home/user/f/x"), NotADirectory,
             "[ENOTDIR] /home/user/f"),
            (lambda fs: fs.resolve_parent("/home/user/f/x/y"), NotADirectory,
             "[ENOTDIR] '/home/user/f/x': 'x' crossed a non-directory"),
            (lambda fs: fs.resolve_parent("/"), InvalidArgument,
             "[EINVAL] path refers to the root directory"),
            (lambda fs: fs.resolve_parent("//"), InvalidArgument,
             "[EINVAL] path refers to the root directory"),
            (lambda fs: fs.resolve("/home/user/f/deeper"), NotADirectory,
             "[ENOTDIR] '/home/user/f/deeper': 'deeper' crossed a non-directory"),
            (lambda fs: fs.resolve("/home//nope"), FileNotFound, "[ENOENT] /home//nope"),
            (lambda fs: fs.makedirs("/home/user/f/a/b"), NotADirectory,
             "[ENOTDIR] /home/user/f"),
            (lambda fs: fs.makedirs("/home/user/f"), NotADirectory, "[ENOTDIR] /home/user/f"),
        ],
    )
    def test_errno_and_message(self, fs, call, error, message):
        with pytest.raises(error) as excinfo:
            call(fs)
        assert str(excinfo.value) == message

    def test_exists_through_a_file_is_false(self, fs):
        assert fs.exists("/home/user/f")
        assert not fs.exists("/home/user/f/x")
        assert not fs.exists("/home/user/f/x/y")

    def test_makedirs_reuses_existing_ancestors(self, fs):
        home = fs.resolve("/home/user")
        created = fs.makedirs("/home/user/a/b")
        assert fs.resolve("/home/user/a/b") is created
        assert fs.resolve("/home/user") is home
        assert fs.makedirs("/home/user/a/b") is created


class TestCreation:
    def test_create_file_with_data(self, fs):
        fs.create_file("/home/user/x", owner=DEFAULT_USER, data=b"abc")
        assert fs.stat("/home/user/x").size == 3

    def test_duplicate_create_rejected(self, fs):
        fs.create_file("/home/user/x", owner=DEFAULT_USER)
        with pytest.raises(FileExists):
            fs.create_file("/home/user/x", owner=DEFAULT_USER)

    def test_makedirs_idempotent_prefix(self, fs):
        fs.makedirs("/a/b/c")
        fs.makedirs("/a/b/c/d")
        assert fs.exists("/a/b/c/d")

    def test_mkdir_in_missing_parent(self, fs):
        with pytest.raises(FileNotFound):
            fs.mkdir("/ghost/dir")

    def test_create_fifo(self, fs):
        node = fs.create_fifo("/home/user/pipe", owner=DEFAULT_USER)
        assert node.kind is FileKind.FIFO


class TestDeletion:
    def test_unlink(self, fs):
        fs.create_file("/home/user/x", owner=DEFAULT_USER)
        fs.unlink("/home/user/x", DEFAULT_USER)
        assert not fs.exists("/home/user/x")

    def test_unlink_missing(self, fs):
        with pytest.raises(FileNotFound):
            fs.unlink("/home/user/ghost", DEFAULT_USER)

    def test_unlink_directory_rejected(self, fs):
        with pytest.raises(IsADirectory):
            fs.unlink("/home/user", ROOT)

    def test_unlink_requires_parent_write(self, fs):
        fs.create_file("/home/user/x", owner=DEFAULT_USER)
        stranger = Credentials(2000, 2000)
        with pytest.raises(PermissionDenied):
            fs.unlink("/home/user/x", stranger)

    def test_rmdir_empty(self, fs):
        fs.mkdir("/home/user/d", owner=DEFAULT_USER)
        fs.rmdir("/home/user/d", DEFAULT_USER)
        assert not fs.exists("/home/user/d")

    def test_rmdir_non_empty(self, fs):
        fs.mkdir("/home/user/d", owner=DEFAULT_USER)
        fs.create_file("/home/user/d/f", owner=DEFAULT_USER)
        with pytest.raises(DirectoryNotEmpty):
            fs.rmdir("/home/user/d", DEFAULT_USER)


class TestOpenFileIO:
    def test_write_then_read(self, fs):
        inode = fs.create_file("/home/user/x", owner=DEFAULT_USER)
        writer = OpenFile("/home/user/x", inode, OpenMode.WRITE, 1)
        writer.write(b"hello world")
        reader = OpenFile("/home/user/x", inode, OpenMode.READ, 1)
        assert reader.read(5) == b"hello"
        assert reader.read(100) == b" world"
        assert reader.read(10) == b""

    def test_read_requires_read_mode(self, fs):
        inode = fs.create_file("/home/user/x", owner=DEFAULT_USER)
        writer = OpenFile("/home/user/x", inode, OpenMode.WRITE, 1)
        with pytest.raises(PermissionDenied):
            writer.read(1)

    def test_write_requires_write_mode(self, fs):
        inode = fs.create_file("/home/user/x", owner=DEFAULT_USER)
        reader = OpenFile("/home/user/x", inode, OpenMode.READ, 1)
        with pytest.raises(PermissionDenied):
            reader.write(b"x")

    def test_closed_file_unusable(self, fs):
        from repro.kernel.errors import BadFileDescriptor

        inode = fs.create_file("/home/user/x", owner=DEFAULT_USER)
        handle = OpenFile("/home/user/x", inode, OpenMode.READ, 1)
        handle.close()
        with pytest.raises(BadFileDescriptor):
            handle.read(1)

    def test_overwrite_extends(self, fs):
        inode = fs.create_file("/home/user/x", owner=DEFAULT_USER, data=b"ab")
        writer = OpenFile("/home/user/x", inode, OpenMode.WRITE, 1)
        writer.offset = 1
        writer.write(b"XYZ")
        assert bytes(inode.data) == b"aXYZ"


class TestMetadata:
    def test_stat_fields(self, fs):
        fs.create_file("/home/user/x", owner=DEFAULT_USER, mode=0o640, now=42, data=b"ab")
        stat = fs.stat("/home/user/x")
        assert stat.kind is FileKind.REGULAR
        assert stat.owner == DEFAULT_USER
        assert stat.mode == 0o640
        assert stat.size == 2
        assert stat.created_at == 42

    def test_listdir_sorted(self, fs):
        for name in ("zeta", "alpha", "mid"):
            fs.create_file(f"/home/user/{name}", owner=DEFAULT_USER)
        assert fs.listdir("/home/user") == ["alpha", "mid", "zeta"]

    def test_listdir_on_file_rejected(self, fs):
        fs.create_file("/home/user/x", owner=DEFAULT_USER)
        with pytest.raises(NotADirectory):
            fs.listdir("/home/user/x")

    def test_walk_count(self):
        fs = Filesystem()
        base = fs.walk_count()
        fs.makedirs("/a/b")
        fs.create_file("/a/b/f", owner=ROOT)
        assert fs.walk_count() == base + 3
