"""The Deletion Rule (paper Section 2.2).

Deleting an object O' propagates along its composite references:

1. *independent exclusive* — never propagates;
2. *dependent exclusive* — always deletes the component;
3. *independent shared* — never propagates;
4. *dependent shared* — deletes the component only when O' was the last
   member of Ds(O); otherwise Ds(O) merely loses O'.

Condition 3 of the paper's Deletion Rule (transitive propagation through
intermediate objects that are themselves being deleted) falls out of the
worklist formulation below: every object enqueued for deletion processes
its own outgoing references the same way the root did.

Deletion also maintains referential hygiene beyond the rule itself: a
deleted object is unlinked from the forward attributes of its surviving
parents, and surviving components lose their reverse references to it.
Weak references are *not* chased — the paper gives them no semantics — so
they may dangle; :func:`repro.core.operations.find_dangling_references`
reports them.

The engine can also log every edit it makes — each victim's image as it
is discarded, each reverse reference it removes from a component, each
forward value it unlinks from a surviving parent — so a transaction
undoes a delete link by link in O(cascade) (:meth:`DeletionEngine.undo`),
leaving alone whatever else other transactions changed on the survivors.
:func:`would_delete` predicts the cascade independently by a fixed point
over the whole database; it is the oracle the tests check the engine
against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..storage.serializer import decode_instance, encode_instance

# Undo-log record kinds (see DeletionEngine.delete).
_DROPPED = "dropped"
_UNREF = "unref"
_UNLINK = "unlink"


@dataclass
class DeletionReport:
    """What one ``delete`` call did.

    Benchmark B7 compares these reports between the extended model and the
    KIM87b baseline to quantify "impedes reuse of objects in a complex
    design environment".
    """

    #: UIDs deleted, in cascade order (the requested root first).
    deleted: list = field(default_factory=list)
    #: Components that survived because their reference was independent.
    preserved_independent: list = field(default_factory=list)
    #: Components that survived because other dependent-shared parents remain.
    preserved_shared: list = field(default_factory=list)
    #: Surviving parents whose forward attribute lost a deleted component.
    unlinked_parents: list = field(default_factory=list)

    @property
    def deleted_count(self):
        return len(self.deleted)

    @property
    def preserved_count(self):
        return len(self.preserved_independent) + len(self.preserved_shared)


class DeletionEngine:
    """Executes the Deletion Rule over a database's object table.

    The engine is deliberately separate from :class:`repro.Database` so the
    KIM87b baseline (which hard-wires dependent-exclusive semantics) can
    reuse the same machinery with a different reference classification.
    """

    def __init__(self, database):
        self._db = database

    def delete(self, uid, undo=None):
        """Delete *uid* and everything the Deletion Rule requires.

        When *undo* is a list, the engine appends one record per edit, in
        the order it makes them: each reverse reference it removes from a
        component (with its position), each forward value it unlinks from
        a surviving parent (with its position), and each victim's image
        as it is discarded.  :meth:`undo` replays them backwards.

        Returns a :class:`DeletionReport`.  Raises
        :class:`repro.errors.UnknownObjectError` when *uid* is not live.
        """
        db = self._db
        root = db.resolve(uid)  # raises when unknown/deleted
        report = DeletionReport()
        queue = deque([root.uid])
        scheduled = {root.uid}

        while queue:
            current_uid = queue.popleft()
            instance = db.peek(current_uid)
            if instance is None or instance.deleted:
                continue
            instance.deleted = True
            report.deleted.append(current_uid)

            self._propagate_to_components(
                instance, queue, scheduled, report, undo
            )
            self._unlink_from_parents(instance, scheduled, report, undo)
            if undo is not None:
                undo.append((_DROPPED, encode_instance(instance)))
            db.discard(current_uid)
            for callback in db.on_update:
                callback(instance, None)

        return report

    def undo(self, log):
        """Reverse the edits a :meth:`delete` recorded in *log*.

        Victims come back whole; survivors get back only the links the
        cascade took, so other transactions' committed changes to them
        stay.  Every restored link fires ``on_link``, the mirror of the
        ``on_unlink`` the cascade fired.  A surviving parent whose
        single-valued slot was refilled meanwhile keeps the new value:
        the resurrected child drops the matching reverse reference
        rather than keep a stale one.  (The composite write plan stops
        other transactions from deleting survivors, so each one is still
        there.)
        """
        db = self._db
        for record in reversed(log):
            kind = record[0]
            if kind == _DROPPED:
                instance = decode_instance(record[1])
                db.reinstate(instance)
            elif kind == _UNREF:
                _, child_uid, index, ref = record
                child = db.peek(child_uid)
                child.reverse_references.insert(index, ref)
                db.persist(child)
                self._fire_link(db.peek(ref.parent), ref.attribute, child)
            else:
                _, parent_uid, attribute, child_uid, position = record
                parent = db.peek(parent_uid)
                child = db.peek(child_uid)
                if db.relink_forward_value(
                    parent, attribute, child_uid, position
                ):
                    db.persist(parent)
                    self._fire_link(parent, attribute, child)
                else:
                    child.remove_reverse_reference(parent_uid, attribute)
                    db.persist(child)

    # -- internals ----------------------------------------------------------

    def _propagate_to_components(self, instance, queue, scheduled, report,
                                 undo):
        """Apply deletion conditions 1-4 to every outgoing composite ref."""
        db = self._db
        for attr, child_uid in db.iter_composite_values(instance):
            child = db.peek(child_uid)
            if child is None or child.deleted:
                continue
            index = _reverse_reference_index(child, instance.uid, attr)
            if index is None:
                continue
            removed = child.reverse_references.pop(index)
            if undo is not None:
                undo.append((_UNREF, child.uid, index, removed))
            spec = db.lattice.get(instance.class_name).attribute(attr)
            for callback in db.on_unlink:
                callback(instance, spec, child)
            if removed.dependent:
                if removed.exclusive:
                    # Condition 2: dependent exclusive always cascades.
                    self._schedule(child.uid, queue, scheduled)
                elif not child.ds_parents():
                    # Condition 4: last dependent-shared parent gone.
                    self._schedule(child.uid, queue, scheduled)
                else:
                    report.preserved_shared.append(child.uid)
            else:
                # Conditions 1 and 3: independent references never cascade.
                report.preserved_independent.append(child.uid)
            db.persist(child)

    def _unlink_from_parents(self, instance, scheduled, report, undo):
        """Remove the dying object from its surviving parents' attributes."""
        db = self._db
        for ref in list(instance.reverse_references):
            if ref.parent in scheduled:
                continue  # parent is dying too; nothing to fix up
            parent = db.peek(ref.parent)
            if parent is None or parent.deleted:
                continue
            position = db.unlink_forward_value(
                parent, ref.attribute, instance.uid
            )
            if position is not None:
                if undo is not None:
                    undo.append((
                        _UNLINK, parent.uid, ref.attribute, instance.uid,
                        position,
                    ))
                report.unlinked_parents.append(parent.uid)
                spec = db.lattice.get(parent.class_name).attribute(ref.attribute)
                for callback in db.on_unlink:
                    callback(parent, spec, instance)
                db.persist(parent)

    def _fire_link(self, parent, attribute, child):
        spec = self._db.lattice.get(parent.class_name).attribute(attribute)
        for callback in self._db.on_link:
            callback(parent, spec, child)

    @staticmethod
    def _schedule(uid, queue, scheduled):
        if uid not in scheduled:
            scheduled.add(uid)
            queue.append(uid)


def _reverse_reference_index(child, parent_uid, attribute):
    """Position of *child*'s reverse reference from *parent_uid.attribute*."""
    for index, ref in enumerate(child.reverse_references):
        if ref.parent == parent_uid and ref.attribute == attribute:
            return index
    return None


def would_delete(database, uid):
    """Predict the cascade of ``delete(uid)`` without performing it.

    Returns the set of UIDs that would be deleted.  It scans every live
    instance until a fixed point, O(database x depth): an independent
    implementation of the rule that tests check the engine against, not
    something to run on a hot path.
    """
    root = database.resolve(uid)
    deleted = {root.uid}
    # Iterate to a fixed point: an object dies when (a) it is the root, or
    # (b) some dying parent holds a dependent exclusive reference to it, or
    # (c) ALL parents in its Ds set are dying and Ds is non-empty, and it
    # has no dependent-exclusive parent outside the dying set.
    changed = True
    while changed:
        changed = False
        for instance in database.live_instances():
            if instance.uid in deleted:
                continue
            dx = instance.dx_parents()
            ds = instance.ds_parents()
            dies = False
            if dx and dx[0] in deleted:
                dies = True
            elif ds and all(parent in deleted for parent in ds):
                dies = True
            if dies:
                deleted.add(instance.uid)
                changed = True
    return deleted
