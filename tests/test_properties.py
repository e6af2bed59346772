"""Property-based tests (hypothesis) on the core invariants.

Three invariant families:

1. **Topology closure** — any sequence of public API operations leaves the
   database satisfying ``Database.validate()`` (Topology Rules 1-3 plus
   forward/reverse reference agreement).
2. **Serializer** — encode/decode is the identity on instances.
3. **Authorization algebra** — ``combine`` is commutative, idempotent,
   and monotone in conflicts; the lock matrix is symmetric and derived
   consistently from claims.
"""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import AttributeSpec, Database, ReproError, SetOf
from repro.authorization import FIGURE6_ATOMS, combine
from repro.core.deletion import would_delete
from repro.core.identity import UID
from repro.core.instance import Instance
from repro.locking.modes import COMPATIBILITY, FIGURE8_MODES
from repro.storage.serializer import decode_instance, encode_instance
from repro.txn import TransactionManager

# ---------------------------------------------------------------------------
# Serializer round-trip
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.builds(UID, st.integers(min_value=0, max_value=10**9),
              st.text(alphabet=string.ascii_letters, min_size=1, max_size=10)),
)
_values = st.one_of(_scalars, st.lists(_scalars, max_size=6))
_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12)


@given(
    uid_num=st.integers(min_value=0, max_value=10**9),
    cls=st.text(alphabet=string.ascii_letters, min_size=1, max_size=12),
    values=st.dictionaries(_names, _values, max_size=8),
    cc=st.integers(min_value=0, max_value=10**6),
    reverse=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**9),
            st.booleans(),
            st.booleans(),
            _names,
        ),
        max_size=5,
        unique_by=lambda t: (t[0], t[3]),
    ),
)
@settings(max_examples=200, deadline=None)
def test_serializer_roundtrip(uid_num, cls, values, cc, reverse):
    instance = Instance(UID(uid_num, cls), cls, values, change_count=cc)
    for parent_num, dependent, exclusive, attr in reverse:
        instance.add_reverse_reference(
            UID(parent_num, "P"), dependent, exclusive, attr
        )
    restored = decode_instance(encode_instance(instance))
    assert restored.uid == instance.uid
    assert restored.class_name == cls
    assert restored.values == values
    assert restored.change_count == cc
    assert restored.reverse_references == instance.reverse_references


# ---------------------------------------------------------------------------
# Authorization algebra
# ---------------------------------------------------------------------------

_atoms = st.sampled_from(FIGURE6_ATOMS)


@given(st.lists(_atoms, min_size=0, max_size=6))
@settings(max_examples=300, deadline=None)
def test_combine_order_independent(atoms):
    forward = combine(atoms)
    backward = combine(list(reversed(atoms)))
    assert forward.conflict == backward.conflict
    assert forward.effective == backward.effective


@given(st.lists(_atoms, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_combine_idempotent_under_duplication(atoms):
    once = combine(atoms)
    doubled = combine(atoms + atoms)
    assert once.conflict == doubled.conflict
    assert once.effective == doubled.effective


@given(st.lists(_atoms, min_size=1, max_size=4), _atoms)
@settings(max_examples=300, deadline=None)
def test_combine_conflict_monotone_under_weak_additions(atoms, extra):
    # Adding a WEAK atom never removes an existing conflict (weak atoms
    # cannot override anything).  A strong atom, by contrast, may settle a
    # weak-weak dispute — e.g. {wR, w¬R} conflicts until sR voids w¬R.
    if combine(atoms).conflict and not extra.strong:
        assert combine(atoms + [extra]).conflict


@given(st.lists(_atoms, min_size=1, max_size=4), _atoms)
@settings(max_examples=300, deadline=None)
def test_strong_conflicts_are_permanent(atoms, extra):
    strong_only = [atom for atom in atoms if atom.strong]
    if strong_only and combine(strong_only).conflict:
        assert combine(atoms + [extra]).conflict


@given(_atoms)
def test_single_atom_never_conflicts(atom):
    resolution = combine([atom])
    assert not resolution.conflict
    assert resolution.atoms() == (atom,)


# ---------------------------------------------------------------------------
# Lock matrix invariants
# ---------------------------------------------------------------------------

_modes = st.sampled_from(FIGURE8_MODES)


@given(_modes, _modes)
def test_matrix_symmetric(a, b):
    assert COMPATIBILITY[(a, b)] == COMPATIBILITY[(b, a)]


@given(_modes)
def test_x_incompatible_with_all(mode):
    from repro.locking.modes import LockMode

    assert not COMPATIBILITY[(LockMode.X, mode)]


# ---------------------------------------------------------------------------
# Stateful topology-closure machine
# ---------------------------------------------------------------------------


class CompositeObjectMachine(RuleBasedStateMachine):
    """Random public-API operations must preserve the global invariants."""

    def __init__(self):
        super().__init__()
        self.db = Database()
        self.db.make_class("Item")
        for flavour, (exclusive, dependent) in {
            "OwnerDX": (True, True),
            "OwnerIX": (True, False),
            "OwnerDS": (False, True),
            "OwnerIS": (False, False),
        }.items():
            self.db.make_class(flavour, attributes=[
                AttributeSpec("kids", domain=SetOf("Item"), composite=True,
                              exclusive=exclusive, dependent=dependent),
            ])
        self.manager = TransactionManager(self.db)
        self.items = []
        self.owners = []

    owners_classes = st.sampled_from(["OwnerDX", "OwnerIX", "OwnerDS", "OwnerIS"])

    @rule(cls=owners_classes)
    def make_owner(self, cls):
        self.owners.append(self.db.make(cls))

    @rule()
    def make_item(self):
        self.items.append(self.db.make("Item"))

    @rule(data=st.data())
    def attach(self, data):
        if not self.items or not self.owners:
            return
        item = data.draw(st.sampled_from(self.items))
        owner = data.draw(st.sampled_from(self.owners))
        if not self.db.exists(item) or not self.db.exists(owner):
            return
        try:
            self.db.make_part_of(item, owner, "kids")
        except ReproError:
            pass  # topology rejections are expected and fine

    @rule(data=st.data())
    def detach(self, data):
        if not self.items or not self.owners:
            return
        item = data.draw(st.sampled_from(self.items))
        owner = data.draw(st.sampled_from(self.owners))
        if not self.db.exists(item) or not self.db.exists(owner):
            return
        self.db.remove_part_of(item, owner, "kids")

    def _draw_live(self, data):
        pool = [u for u in self.items + self.owners if self.db.exists(u)]
        return data.draw(st.sampled_from(pool)) if pool else None

    @rule(data=st.data())
    def delete_something(self, data):
        victim = self._draw_live(data)
        if victim is None:
            return
        predicted = would_delete(self.db, victim)
        report = self.db.delete(victim)
        assert predicted == set(report.deleted)

    @rule(data=st.data())
    def delete_and_abort(self, data):
        victim = self._draw_live(data)
        if victim is None:
            return
        before = self._images()
        txn = self.manager.begin()
        self.manager.delete(txn, victim)
        self.manager.abort(txn)
        assert self._images() == before
        self.db.validate()

    def _images(self):
        return {
            instance.uid: encode_instance(instance)
            for instance in self.db.live_instances()
        }

    @invariant()
    def database_valid(self):
        self.db.validate()

    @invariant()
    def topology_rules_hold(self):
        for instance in self.db.live_instances():
            exclusive = [r for r in instance.reverse_references if r.exclusive]
            shared = [r for r in instance.reverse_references if not r.exclusive]
            assert len(exclusive) <= 1
            assert not (exclusive and shared)


CompositeObjectMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestCompositeObjectMachine = CompositeObjectMachine.TestCase
