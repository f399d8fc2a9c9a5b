"""Tests for the object store, credentials, and table format."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import VirtualClock
from repro.errors import CredentialError, StorageAccessDenied, StorageError
from repro.storage import (
    CredentialVendor,
    InstanceProfileCredential,
    LakeTableStorage,
    ObjectStore,
)
from repro.storage.credentials import LIST, READ, WRITE


def commit_file(storage, columns, credential):
    """Stage ``columns`` as one data file and commit it at the durable tip
    plus one: the two primitives every table write commits through."""
    data_file = storage.stage_data_file(columns, credential)
    tip = storage.snapshot(credential)
    storage.commit_version(
        tip.version + 1, [data_file.add_action()], tip.column_names, credential
    )
    return storage.snapshot(credential)


class _RevokeOnNextRead(VirtualClock):
    """A virtual clock that runs ``hook`` once, inside its next reading."""

    hook = None

    def now(self) -> float:
        hook, self.hook = self.hook, None
        if hook is not None:
            hook()
        return super().now()


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def vendor(clock):
    return CredentialVendor(clock=clock, ttl_seconds=60.0)


@pytest.fixture
def store(clock):
    return ObjectStore(clock=clock)


@pytest.fixture
def root_cred(vendor):
    return vendor.issue("root", ["s3://"], {READ, WRITE, LIST, "DELETE"})


class TestCredentials:
    def test_scoped_to_prefix(self, vendor, clock):
        cred = vendor.issue("alice", ["s3://bucket/tableA"], {READ})
        assert cred.authorizes("s3://bucket/tableA/file1", READ, clock.now())
        assert not cred.authorizes("s3://bucket/tableB/file1", READ, clock.now())

    def test_scoped_to_operations(self, vendor, clock):
        cred = vendor.issue("alice", ["s3://b/t"], {READ})
        assert not cred.authorizes("s3://b/t/f", WRITE, clock.now())

    def test_expiry(self, vendor, clock):
        cred = vendor.issue("alice", ["s3://b/t"], {READ})
        clock.advance(61.0)
        assert not cred.authorizes("s3://b/t/f", READ, clock.now())
        assert cred.is_expired(clock.now())

    def test_identity_embedded(self, vendor):
        cred = vendor.issue("alice", ["s3://b/t"], {READ})
        assert cred.identity == "alice"

    def test_validate_live(self, vendor):
        cred = vendor.issue("alice", ["s3://b/t"], {READ})
        vendor.validate(cred)  # no raise

    def test_validate_revoked(self, vendor):
        cred = vendor.issue("alice", ["s3://b/t"], {READ})
        vendor.revoke(cred.token)
        with pytest.raises(CredentialError):
            vendor.validate(cred)

    def test_validate_expired(self, vendor, clock):
        cred = vendor.issue("alice", ["s3://b/t"], {READ})
        clock.advance(120.0)
        with pytest.raises(CredentialError):
            vendor.validate(cred)

    def test_revoke_identity(self, vendor):
        vendor.issue("alice", ["s3://a"], {READ})
        vendor.issue("alice", ["s3://b"], {READ})
        vendor.issue("bob", ["s3://c"], {READ})
        assert vendor.revoke_identity("alice") == 2
        assert len(vendor.live_credentials()) == 1

    def test_revoke_racing_an_expiry_check_is_a_credential_error(self):
        """Another thread revokes the token after ``validate`` found it live
        but before it drops it as expired: the caller still gets the typed
        error its recovery (re-vend) is keyed on, never a ``KeyError``."""
        clock = _RevokeOnNextRead()
        vendor = CredentialVendor(clock=clock, ttl_seconds=60.0)
        cred = vendor.issue("alice", ["s3://b/t"], {READ})
        clock.advance(61.0)
        clock.hook = lambda: vendor.revoke(cred.token)
        with pytest.raises(CredentialError, match="expired"):
            vendor.validate(cred)
        assert clock.hook is None
        assert vendor.live_credentials() == []

    def test_concurrent_issues_are_all_counted_while_readers_walk(self):
        vendor = CredentialVendor(clock=VirtualClock(), ttl_seconds=60.0)
        done = threading.Event()
        errors = []

        def issue(identity):
            for _ in range(2_000):
                vendor.issue(identity, ["s3://b/t"], {READ})

        def walk():
            try:
                while not done.is_set():
                    vendor.live_credentials()
                    vendor.revoke_identity("nobody")
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        reader = threading.Thread(target=walk)
        reader.start()
        writers = [threading.Thread(target=issue, args=(f"u{i}",)) for i in range(4)]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        done.set()
        reader.join()
        assert errors == []
        assert vendor.issued_count == 8_000
        assert len(vendor.live_credentials()) == 8_000

    def test_unknown_operation_rejected(self, vendor):
        with pytest.raises(CredentialError):
            vendor.issue("alice", ["s3://b"], {"FLY"})

    def test_empty_prefixes_rejected(self, vendor):
        with pytest.raises(CredentialError):
            vendor.issue("alice", [], {READ})

    def test_issued_count(self, vendor):
        vendor.issue("a", ["s3://x"], {READ})
        vendor.issue("b", ["s3://y"], {READ})
        assert vendor.issued_count == 2

    def test_instance_profile_has_no_user(self):
        profile = InstanceProfileCredential("t", "cluster-1", ("s3://data",))
        assert profile.identity == "<cluster>"
        assert profile.authorizes("s3://data/f", READ, now=0.0)
        assert not profile.authorizes("s3://other/f", READ, now=0.0)


class TestObjectStore:
    def test_put_get_roundtrip(self, store, root_cred):
        store.put("s3://b/k", b"hello", root_cred)
        assert store.get("s3://b/k", root_cred) == b"hello"

    def test_get_missing_raises(self, store, root_cred):
        with pytest.raises(StorageError):
            store.get("s3://b/missing", root_cred)

    def test_denied_outside_scope(self, store, vendor, root_cred):
        store.put("s3://secret/k", b"x", root_cred)
        narrow = vendor.issue("alice", ["s3://public"], {READ})
        with pytest.raises(StorageAccessDenied):
            store.get("s3://secret/k", narrow)
        assert store.stats.denied_ops == 1

    def test_object_level_granularity(self, store, root_cred, vendor):
        """There is no partial-object authorization: all bytes or none."""
        store.put("s3://d/file", b"A" * 100, root_cred)
        reader = vendor.issue("alice", ["s3://d"], {READ})
        data = store.get("s3://d/file", reader)
        assert len(data) == 100  # the full object, always

    def test_list_prefix(self, store, root_cred):
        store.put("s3://b/t/1", b"x", root_cred)
        store.put("s3://b/t/2", b"y", root_cred)
        store.put("s3://b/u/3", b"z", root_cred)
        assert store.list("s3://b/t/", root_cred) == ["s3://b/t/1", "s3://b/t/2"]

    def test_delete(self, store, root_cred):
        store.put("s3://b/k", b"x", root_cred)
        store.delete("s3://b/k", root_cred)
        assert not store.exists("s3://b/k", root_cred)

    def test_stats_track_bytes(self, store, root_cred):
        store.put("s3://b/k", b"12345", root_cred)
        store.get("s3://b/k", root_cred)
        assert store.stats.bytes_written == 5
        assert store.stats.bytes_read == 5

    def test_total_bytes_accounting(self, store, root_cred):
        store.put("s3://b/a", b"123", root_cred)
        store.put("s3://b/b", b"4567", root_cred)
        assert store.total_bytes("s3://b") == 7
        assert store.object_count("s3://b") == 2

    def test_put_requires_bytes(self, store, root_cred):
        with pytest.raises(StorageError):
            store.put("s3://b/k", "not-bytes", root_cred)

    @given(
        steps=st.lists(
            st.tuples(st.booleans(), st.sampled_from(["a", "a/", "a/b", "ab", "a/c0", "b/a", "a0"])),
            max_size=30,
        ),
        prefix=st.sampled_from(["", "a", "a/", "a/b", "b", "c"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_last_is_the_listing_tip(self, steps, prefix):
        """Under any put / delete sequence, ``last`` names what the sorted
        listing ends with, with the same LIST check and audit."""
        vendor = CredentialVendor(clock=VirtualClock(), ttl_seconds=60.0)
        cred = vendor.issue("root", ["s3://"], {READ, WRITE, LIST, "DELETE"})
        store = ObjectStore(clock=VirtualClock())
        for put, key in steps:
            path = f"s3://{key}"
            if put:
                store.put(path, b"x", cred)
            else:
                store.delete(path, cred)
            listing = store.list(f"s3://{prefix}", cred)
            assert store.last(f"s3://{prefix}", cred) == (listing[-1] if listing else None)
        outsider = vendor.issue("eve", ["s3://c"], {LIST})
        with pytest.raises(StorageAccessDenied):
            store.last("s3://a", outsider)

    def test_latest_version_visits_a_logarithm_of_the_log(self, store, root_cred):
        table = LakeTableStorage(store, "s3://wh/long")
        table.create(["id"], root_cred)
        for version in range(1, 500):
            table.commit_version(version, [], ["id"], root_cred)
        visits = []

        class Counting(list):
            """Counts the keys read, a slice's every key included."""

            def __getitem__(self, index):
                got = super().__getitem__(index)
                visits.append(len(got) if isinstance(index, slice) else 1)
                return got

        store._paths = Counting(store._paths)
        assert table.latest_version(root_cred) == 499
        assert 0 < sum(visits) <= 2 * len(store._paths).bit_length() + 2


class TestLakeTableStorage:
    @pytest.fixture
    def table(self, store, root_cred):
        t = LakeTableStorage(store, "s3://wh/t1")
        t.create(["id", "v"], root_cred)
        return t

    def test_create_starts_at_version_zero(self, table, root_cred):
        assert table.latest_version(root_cred) == 0
        snap = table.snapshot(root_cred)
        assert snap.num_rows == 0
        assert snap.column_names == ("id", "v")

    def test_double_create_rejected(self, table, root_cred):
        with pytest.raises(StorageError):
            table.create(["id"], root_cred)

    def test_append_advances_version(self, table, root_cred):
        snap = commit_file(table, {"id": [1, 2], "v": ["a", "b"]}, root_cred)
        assert snap.version == 1
        assert snap.num_rows == 2

    def test_multiple_appends_accumulate(self, table, root_cred):
        commit_file(table, {"id": [1], "v": ["a"]}, root_cred)
        commit_file(table, {"id": [2], "v": ["b"]}, root_cred)
        data = table.read_all(root_cred)
        assert data == {"id": [1, 2], "v": ["a", "b"]}

    def test_overwrite_replaces(self, table, root_cred):
        commit_file(table, {"id": [1], "v": ["a"]}, root_cred)
        table.overwrite({"id": [9], "v": ["z"]}, root_cred)
        assert table.read_all(root_cred) == {"id": [9], "v": ["z"]}

    def test_time_travel(self, table, root_cred):
        commit_file(table, {"id": [1], "v": ["a"]}, root_cred)
        table.overwrite({"id": [9], "v": ["z"]}, root_cred)
        old = table.read_all(root_cred, version=1)
        assert old == {"id": [1], "v": ["a"]}

    def test_snapshot_out_of_range(self, table, root_cred):
        with pytest.raises(StorageError):
            table.snapshot(root_cred, version=99)

    def test_column_mismatch_rejected(self, table, root_cred):
        with pytest.raises(StorageError):
            table.overwrite({"wrong": [1], "v": ["a"]}, root_cred)
        assert table.latest_version(root_cred) == 0

    def test_ragged_columns_rejected(self, table, root_cred):
        with pytest.raises(StorageError):
            table.stage_data_file({"id": [1, 2], "v": ["a"]}, root_cred)

    def test_missing_table(self, store, root_cred):
        ghost = LakeTableStorage(store, "s3://wh/ghost")
        with pytest.raises(StorageError):
            ghost.snapshot(root_cred)
        assert ghost.latest_version(root_cred) == -1

    def test_reader_needs_read_and_list(self, table, store, vendor, root_cred):
        commit_file(table, {"id": [1], "v": ["a"]}, root_cred)
        # LIST alone cannot even resolve a snapshot (the log must be read).
        listonly = vendor.issue("alice", ["s3://wh/t1"], {LIST})
        with pytest.raises(StorageAccessDenied):
            table.snapshot(listonly)
        # READ+LIST suffices for the whole read path.
        reader = vendor.issue("alice", ["s3://wh/t1"], {READ, LIST})
        snap = table.snapshot(reader)
        assert table.read_file(snap.files[0], reader) == {"id": [1], "v": ["a"]}
