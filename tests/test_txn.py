"""Tests for transactions: strict 2PL, undo, abort-time resurrection."""

import pytest

import repro.core
from repro import AttributeSpec, Database, LockConflictError, SetOf
from repro.core import deletion
from repro.errors import TransactionStateError
from repro.locking.modes import LockMode as M
from repro.mvcc import SnapshotManager
from repro.storage.durable import DurableDatabase
from repro.storage.serializer import encode_instance
from repro.txn import TransactionManager, TxnState
from repro.versions import VersionManager


def _define_schema(database):
    database.make_class("Leaf", attributes=[
        AttributeSpec("Tag", domain="string"),
    ])
    database.make_class("Box", attributes=[
        AttributeSpec("Name", domain="string"),
        AttributeSpec("L", domain=SetOf("Leaf"), composite=True,
                      exclusive=True, dependent=True),
    ])


@pytest.fixture
def txn_env():
    database = Database()
    _define_schema(database)
    manager = TransactionManager(database)
    return database, manager


def _images(database):
    """Every live object's serialized image, by UID."""
    return {
        instance.uid: encode_instance(instance)
        for instance in database.live_instances()
    }


# Each builder wires a composite around the object it returns, which the
# test then deletes inside a transaction and aborts.

def _box_with_leaves(database):
    box = database.make("Box", values={"Name": "x"})
    for _ in range(3):
        database.make("Leaf", parents=[(box, "L")])
    return box


def _define_crate(database):
    database.make_class("Crate", attributes=[
        AttributeSpec("Name", domain="string"),
        AttributeSpec("Parts", domain=SetOf("Box"), composite=True,
                      exclusive=True, dependent=True),
        AttributeSpec("Main", domain="Box", composite=True,
                      exclusive=True, dependent=True),
    ])


def _component_of_surviving_parent(database):
    _define_crate(database)
    root = database.make("Crate")
    sub = database.make("Box", parents=[(root, "Parts")])
    database.make("Box", parents=[(root, "Parts")])
    database.make("Leaf", parents=[(sub, "L")])
    return sub


def _parent_of_independent_components(database):
    database.make_class("Shelf", attributes=[
        AttributeSpec("Held", domain=SetOf("Leaf"), composite=True,
                      exclusive=True, dependent=False),
    ])
    shelf = database.make("Shelf")
    for _ in range(2):
        database.make("Leaf", parents=[(shelf, "Held")])
    return shelf


def _parent_of_shared_components(database):
    database.make_class("Bin", attributes=[
        AttributeSpec("Shared", domain=SetOf("Leaf"), composite=True,
                      exclusive=False, dependent=True),
    ])
    doomed, keeper = database.make("Bin"), database.make("Bin")
    for _ in range(2):
        database.make(
            "Leaf", parents=[(doomed, "Shared"), (keeper, "Shared")]
        )
    return doomed


def _victim_with_surviving_parent(database):
    # The Leaf dies with its last dependent-shared parent, the Bin, while
    # the Tray that holds it independently survives and is unlinked.
    database.make_class("Bin", attributes=[
        AttributeSpec("Shared", domain=SetOf("Leaf"), composite=True,
                      exclusive=False, dependent=True),
    ])
    database.make_class("Tray", attributes=[
        AttributeSpec("On", domain=SetOf("Leaf"), composite=True,
                      exclusive=False, dependent=False),
    ])
    doomed, tray = database.make("Bin"), database.make("Tray")
    database.make("Leaf", parents=[(tray, "On")])
    database.make("Leaf", parents=[(doomed, "Shared"), (tray, "On")])
    database.make("Leaf", parents=[(tray, "On")])
    return doomed


class TestCommitAbort:
    def test_commit_keeps_changes(self, txn_env):
        database, manager = txn_env
        box = database.make("Box", values={"Name": "a"})
        txn = manager.begin()
        manager.write(txn, box, "Name", "b")
        manager.commit(txn)
        assert database.value(box, "Name") == "b"
        assert txn.state is TxnState.COMMITTED
        assert manager.commits == 1

    def test_abort_restores_scalar(self, txn_env):
        database, manager = txn_env
        box = database.make("Box", values={"Name": "a"})
        txn = manager.begin()
        manager.write(txn, box, "Name", "b")
        manager.abort(txn)
        assert database.value(box, "Name") == "a"
        assert manager.aborts == 1

    def test_abort_restores_set_operations(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        keep = database.make("Leaf", parents=[(box, "L")])
        txn = manager.begin()
        added = manager.make(txn, "Leaf")
        manager.insert(txn, box, "L", added)
        manager.remove(txn, box, "L", keep)
        manager.abort(txn)
        assert database.value(box, "L") == [keep]
        assert not database.exists(added)
        database.validate()

    @pytest.mark.parametrize("build", [
        _box_with_leaves,
        _component_of_surviving_parent,
        _parent_of_independent_components,
        _parent_of_shared_components,
        _victim_with_surviving_parent,
    ], ids=[
        "dependent-exclusive-cascade",
        "component-of-surviving-parent",
        "surviving-independent-components",
        "surviving-shared-components",
        "victim-with-surviving-parent",
    ])
    def test_abort_resurrects_deletion_cascade(self, txn_env, build):
        database, manager = txn_env
        victim = build(database)
        before = _images(database)
        txn = manager.begin()
        manager.delete(txn, victim)
        assert not database.exists(victim)
        manager.abort(txn)
        assert _images(database) == before
        database.validate()

    def test_abort_of_delete_under_snapshots_and_journal(self, tmp_path):
        # The undo announces every restored instance, so the MVCC chains
        # and the journal end where they began: a snapshot read and a
        # recovery both see the pre-delete state.
        database = DurableDatabase(tmp_path, sync_policy="commit")
        try:
            _define_schema(database)
            snapshots = SnapshotManager(database)
            manager = TransactionManager(database)
            victim = _component_of_surviving_parent(database)
            (root,) = database.parents_of(victim)
            before = _images(database)
            txn = manager.begin()
            manager.delete(txn, victim)
            manager.abort(txn)
            assert _images(database) == before
            database.validate()
            epoch = database.commit_epoch
            assert snapshots.read_at(root, "Parts", epoch) == \
                database.value(root, "Parts")
        finally:
            database.close()
        recovered = DurableDatabase.open(tmp_path)
        try:
            assert _images(recovered) == before
            recovered.validate()
        finally:
            recovered.close()

    def test_abort_of_delete_restores_version_refcounts(self):
        # Undo replays on_link for every link the cascade took, so the
        # version manager's generic-level ref-counts come back too.
        database = Database()
        versions = VersionManager(database)
        database.make_class("Design", versionable=True, attributes=[
            AttributeSpec("Rev", domain="integer"),
        ])
        generic, _v1 = versions.create("Design", values={"Rev": 1})
        database.make_class("Product", attributes=[
            AttributeSpec("Core", domain="Design", composite=True,
                          exclusive=True, dependent=False),
        ])
        product = database.make("Product", values={"Core": generic})
        assert database.fsck().clean
        manager = TransactionManager(database)
        txn = manager.begin()
        manager.delete(txn, product)
        manager.abort(txn)
        database.validate()
        assert database.fsck().clean

    def test_delete_never_prescans_the_database(self, txn_env, monkeypatch):
        # Undo images come from the engine's own cascade; the
        # O(database) would_delete oracle must stay off this path.
        def prescan(*_args, **_kwargs):
            raise AssertionError("would_delete ran on the delete path")

        monkeypatch.setattr(deletion, "would_delete", prescan)
        monkeypatch.setattr(repro.core, "would_delete", prescan)
        database, manager = txn_env
        victim = _component_of_surviving_parent(database)
        before = _images(database)
        txn = manager.begin()
        manager.delete(txn, victim)
        manager.abort(txn)
        assert _images(database) == before
        database.validate()

    def test_committed_delete_stays(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        leaf = database.make("Leaf", parents=[(box, "L")])
        txn = manager.begin()
        manager.delete(txn, box)
        manager.commit(txn)
        assert not database.exists(box) and not database.exists(leaf)

    def test_double_commit_rejected(self, txn_env):
        database, manager = txn_env
        txn = manager.begin()
        manager.commit(txn)
        with pytest.raises(TransactionStateError):
            manager.commit(txn)
        with pytest.raises(TransactionStateError):
            manager.abort(txn)

    def test_operation_after_commit_rejected(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        txn = manager.begin()
        manager.commit(txn)
        with pytest.raises(TransactionStateError):
            manager.write(txn, box, "Name", "z")

    def test_undo_applied_in_reverse_order(self, txn_env):
        database, manager = txn_env
        box = database.make("Box", values={"Name": "start"})
        txn = manager.begin()
        manager.write(txn, box, "Name", "mid")
        manager.write(txn, box, "Name", "end")
        manager.abort(txn)
        assert database.value(box, "Name") == "start"


class TestAbortedDeleteKeepsConcurrentWork:
    """A delete never locks its surviving parents, so other transactions
    may change them and commit while it is open; its abort must give back
    only the links it took."""

    @pytest.fixture
    def crate(self, txn_env):
        database, manager = txn_env
        victim = _component_of_surviving_parent(database)
        (root,) = database.parents_of(victim)
        return database, manager, root, victim

    def test_committed_write_to_parent_survives(self, crate):
        database, manager, root, sub = crate
        parts = database.value(root, "Parts")
        t1, t2 = manager.begin(), manager.begin()
        manager.delete(t1, sub)
        manager.write(t2, root, "Name", "renamed")
        manager.commit(t2)
        manager.abort(t1)
        assert database.value(root, "Name") == "renamed"
        assert database.value(root, "Parts") == parts
        database.validate()

    def test_committed_sibling_survives(self, crate):
        database, manager, root, sub = crate
        parts = database.value(root, "Parts")
        t1, t2 = manager.begin(), manager.begin()
        manager.delete(t1, sub)
        added = manager.make(t2, "Box", parents=[(root, "Parts")])
        manager.commit(t2)
        manager.abort(t1)
        assert database.value(root, "Parts") == parts + [added]
        database.validate()

    def test_refilled_single_valued_slot_wins(self, crate):
        database, manager, root, _sub = crate
        main = database.make("Box", parents=[(root, "Main")])
        spare = database.make("Box")
        t1, t2 = manager.begin(), manager.begin()
        manager.delete(t1, main)
        manager.write(t2, root, "Main", spare)
        manager.commit(t2)
        manager.abort(t1)
        # The slot holds the committed value; the resurrected box comes
        # back detached instead of with a stale reverse reference.
        assert database.value(root, "Main") == spare
        assert database.exists(main)
        assert database.parents_of(main) == []
        database.validate()


class TestStrict2PL:
    def test_writer_blocks_writer(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        t1, t2 = manager.begin(), manager.begin()
        manager.write(t1, box, "Name", "a")
        with pytest.raises(LockConflictError):
            manager.write(t2, box, "Name", "b")

    def test_readers_share(self, txn_env):
        database, manager = txn_env
        box = database.make("Box", values={"Name": "a"})
        t1, t2 = manager.begin(), manager.begin()
        assert manager.read(t1, box, "Name") == "a"
        assert manager.read(t2, box, "Name") == "a"

    def test_reader_blocks_writer(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        t1, t2 = manager.begin(), manager.begin()
        manager.read(t1, box, "Name")
        with pytest.raises(LockConflictError):
            manager.write(t2, box, "Name", "b")

    def test_locks_held_until_commit(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        t1 = manager.begin()
        manager.write(t1, box, "Name", "a")
        t2 = manager.begin()
        with pytest.raises(LockConflictError):
            manager.read(t2, box, "Name")
        manager.commit(t1)
        assert manager.read(t2, box, "Name") == "a"

    def test_abort_releases_locks(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        t1 = manager.begin()
        manager.write(t1, box, "Name", "a")
        manager.abort(t1)
        t2 = manager.begin()
        manager.write(t2, box, "Name", "b")

    def test_read_composite_locks_whole_granule(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        leaf = database.make("Leaf", parents=[(box, "L")])
        t1 = manager.begin()
        components = manager.read_composite(t1, box)
        assert components == [leaf]
        # The composite read (ISO on Leaf) blocks a direct leaf writer (IX).
        t2 = manager.begin()
        with pytest.raises(LockConflictError):
            manager.write(t2, leaf, "Tag", "dirty")

    def test_composite_update_lock(self, txn_env):
        database, manager = txn_env
        b1 = database.make("Box")
        b2 = database.make("Box")
        t1, t2 = manager.begin(), manager.begin()
        manager.lock_composite_for_update(t1, b1)
        # Distinct composite objects of the same class update concurrently.
        manager.lock_composite_for_update(t2, b2)
        assert manager.table.modes_held(t1, ("class", "Leaf")) == {M.IXO}
        assert manager.table.modes_held(t2, ("class", "Leaf")) == {M.IXO}

    def test_make_locks_parents(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        t1 = manager.begin()
        manager.make(t1, "Leaf", parents=[(box, "L")])
        t2 = manager.begin()
        with pytest.raises(LockConflictError):
            manager.write(t2, box, "Name", "b")
