"""Output oracles: what the server must hold after each workload.

Each oracle is a pure function from what the client was acknowledged to
what the server returned, and answers a list of violations (empty when
the run is correct).  Keeping them free of I/O lets the self-check feed
each one a fabricated violation and show that it fires.
"""

from __future__ import annotations


def check_stamps(expected, observed):
    """txmix: every object's ``Stamp`` equals its last acknowledged write.

    *expected* maps UID -> the stamp of the last committed write the
    client was acknowledged (0 for never-written objects); *observed*
    maps UID -> the stamp the server returns now.
    """
    violations = []
    for uid, stamp in expected.items():
        got = observed.get(uid, "<missing>")
        if got != stamp:
            violations.append(f"{uid}: Stamp is {got!r}, last ack was {stamp}")
    extra = set(observed) - set(expected)
    if extra:
        violations.append(f"{len(extra)} object(s) the client never made")
    return violations


def check_assemblies(expected, observed, parts_total):
    """assembly: each composite's ``components_of`` is the client's set.

    *expected* and *observed* map each assembly root to a set of
    component UIDs; *parts_total* is the server's ``instances_of("Part")``
    count, which must equal the sum of the expected sets — a larger count
    means orphaned parts survived a Deletion Rule cascade, a smaller one
    lost parts.
    """
    violations = []
    for root, components in expected.items():
        got = observed.get(root, set())
        if got != components:
            violations.append(
                f"{root}: {len(got - components)} unexpected and "
                f"{len(components - got)} missing component(s)"
            )
    want_total = sum(len(components) for components in expected.values())
    if parts_total != want_total:
        violations.append(
            f"instances_of('Part') is {parts_total}, expected {want_total}"
        )
    return violations


def check_recovery(survivors, deleted, observed_roots, observed_parts,
                   observed_stamps):
    """durable-churn: a restarted server holds exactly what was acked.

    *survivors* maps each surviving root to ``{part: acked stamp}``;
    *deleted* is every root and part whose delete was acknowledged.
    *observed_roots* / *observed_parts* are the restarted server's
    ``instances_of`` sets and *observed_stamps* maps each surviving part
    to the stamp it reads back.
    """
    violations = []
    want_roots = set(survivors)
    want_parts = {part for parts in survivors.values() for part in parts}
    back = (observed_roots | observed_parts) & deleted
    if back:
        violations.append(f"{len(back)} acknowledged delete(s) came back")
    lost = (want_roots - observed_roots) | (want_parts - observed_parts)
    if lost:
        violations.append(f"{len(lost)} acknowledged object(s) were lost")
    unknown = (observed_roots - want_roots) | (observed_parts - want_parts)
    if unknown - deleted:
        violations.append(
            f"{len(unknown - deleted)} object(s) the client never kept"
        )
    for parts in survivors.values():
        for part, stamp in parts.items():
            got = observed_stamps.get(part, "<missing>")
            if got != stamp:
                violations.append(
                    f"{part}: Stamp is {got!r} after restart, ack was {stamp}"
                )
    return violations
