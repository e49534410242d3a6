"""The trace event taxonomy: integer-only, deterministic records.

Every trace record is a 5-tuple of plain ints::

    (time_fs, kind, subject, a, b)

``time_fs`` is simulation time (femtoseconds), ``kind`` is one of the
``EV_*`` codes below, ``subject`` is an interned subject id (a port, node,
link or component name — see :meth:`TraceRecorder.subject_id`), and ``a`` /
``b`` are kind-specific integer arguments.  Keeping records integer-only is
what makes trace artifacts byte-stable for a given seed: no floats, no
wall-clock values, no object reprs ever enter the stream (wall-clock
profiling lives in the metrics registry's digest-excluded section instead).
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Port FSM transition.  a = new state code (:data:`STATE_CODES`), b = 0.
EV_PORT_STATE = 1
#: Message handed to the wire.  a = message type code, b = 53-bit payload.
EV_TX = 2
#: Message dropped at the TX gate (``DtpPort.tx_allow``).  a = type code.
EV_TX_BLOCKED = 3
#: Message decoded by the receiver.  a = message type code, b = payload.
EV_RX = 4
#: Block destroyed on the wire.  a = :data:`LOST_WIRE` (dropped outright)
#: or :data:`LOST_HEADER` (sync header / block type corrupted).
EV_LOST = 5
#: Received counter rejected (Section 3.2 filters).  a = reason code
#: (:data:`REJECT_RANGE` / :data:`REJECT_PARITY` / :data:`REJECT_UNDECODABLE`),
#: b = the offending delta in counter units (0 when undecodable).
EV_REJECT = 6
#: INIT/INIT-ACK one-way-delay measurement completed (transition T2).
#: a = measured ``d`` in counter units, b = alpha in counter units.
EV_OWD = 7
#: ``lc <- max(lc, remote + d)`` actually moved the counter (T4/JOIN).
#: a = delta vs the free-running reference, b = the applied jump size.
EV_JUMP = 8
#: Peer declared faulty by the Section 3.2 window filter.
#: a = jumps in the window, b = rejects in the window.
EV_PEER_FAULT = 9
#: One invariant-checker tick.  a = pairs checked this tick,
#: b = violations recorded this tick.
EV_CHECK = 10
#: One invariant violation.  subject = violated subject (node or pair),
#: a = interned invariant name id, b = 0.
EV_VIOLATION = 11
#: Fault injected: node quarantined from the invariant checker.
#: a = interned fault reason id.
EV_QUARANTINE = 12
#: Fault healed: node released back to checking.  a = interned reason id.
EV_RELEASE = 13
#: BoundMonitor alarm.  subject = link, a = offset ticks, b = bound ticks.
EV_ALARM = 14
#: Codes 15 to 20 are retired: nothing emits them.  They stay, with their
#: names in :data:`KIND_NAMES`, because every trace header lists all of
#: ``KIND_NAMES``; dropping them would change the bytes (and the pinned
#: digests) of every ``.trace.jsonl``.  Codes 21 and up keep their numbers.
EV_DISC_OBSERVE = 15
EV_DISC_ACTION = 16
EV_LINK_STATE = 17
EV_LINK_RECONNECT = 18
EV_LINK_RESYNC = 19
EV_LINK_RELEASE = 20
#: Shard coordinator issued a window grant (``repro.observe`` health
#: channel).  subject = ``coordinator``, a = round number (1-based),
#: b = grant advance vs the previous round, fs.
EV_SHARD_GRANT = 21
#: Window round advanced no grant.  a = consecutive stalled rounds,
#: b = the coordinator's stall limit.
EV_SHARD_STALL = 22
#: One shard serviced a window request.  subject = ``shard/<id>``,
#: a = records replayed from that shard this round, b = lag (the shard's
#: promise minus the grant, fs, clamped at 0).
EV_SHARD_SERVICE = 23
#: Supervised task changed state.  subject = ``task/<name>``, a = state
#: code (:data:`SUPERVISOR_STATE_CODES`), b = attempt number.
EV_SUPERVISOR_TASK = 24
#: Supervisor scheduled a retry.  a = failed attempt number,
#: b = backoff delay in scheduler slots.
EV_SUPERVISOR_RETRY = 25
#: Supervisor quarantined a task.  a = interned failure-reason id,
#: b = attempts consumed.
EV_SUPERVISOR_QUARANTINE = 26

KIND_NAMES: Dict[int, str] = {
    EV_PORT_STATE: "port-state",
    EV_TX: "tx",
    EV_TX_BLOCKED: "tx-blocked",
    EV_RX: "rx",
    EV_LOST: "lost",
    EV_REJECT: "reject",
    EV_OWD: "owd",
    EV_JUMP: "jump",
    EV_PEER_FAULT: "peer-fault",
    EV_CHECK: "invariant-check",
    EV_VIOLATION: "invariant-violation",
    EV_QUARANTINE: "fault-inject",
    EV_RELEASE: "fault-recover",
    EV_ALARM: "monitor-alarm",
    EV_DISC_OBSERVE: "discipline-observe",
    EV_DISC_ACTION: "discipline-action",
    EV_LINK_STATE: "link-state",
    EV_LINK_RECONNECT: "link-reconnect",
    EV_LINK_RESYNC: "link-resync",
    EV_LINK_RELEASE: "link-release",
    EV_SHARD_GRANT: "shard-grant",
    EV_SHARD_STALL: "shard-stall",
    EV_SHARD_SERVICE: "shard-service",
    EV_SUPERVISOR_TASK: "supervisor-task",
    EV_SUPERVISOR_RETRY: "supervisor-retry",
    EV_SUPERVISOR_QUARANTINE: "supervisor-quarantine",
}

#: ``EV_PORT_STATE`` argument ``a``: the port FSM state.
STATE_DOWN = 0
STATE_INIT = 1
STATE_SYNCHRONIZED = 2
STATE_CODES: Dict[int, str] = {
    STATE_DOWN: "down",
    STATE_INIT: "init",
    STATE_SYNCHRONIZED: "synchronized",
}

#: ``EV_LOST`` argument ``a``.
LOST_WIRE = 1
LOST_HEADER = 2

#: ``EV_REJECT`` argument ``a``.
REJECT_RANGE = 1
REJECT_PARITY = 2
REJECT_UNDECODABLE = 3

#: ``EV_SUPERVISOR_TASK`` argument ``a``: the supervised task's state
#: (mirrors ``repro.resilience``; duplicated here so the schema table has
#: no import cycle into the supervision package).
SUPERVISOR_STATE_CODES: Dict[int, str] = {
    0: "running",
    1: "done",
    2: "retrying",
    3: "quarantined",
}


#: The reference schema: ``{code: (subject, a, b)}`` — what each field of
#: a record of that kind means.  ``docs/OBSERVABILITY.md``'s event table is
#: generated from this dict (``tests/test_events_schema_doc.py``, which also
#: asserts the doc, this dict, and the ``EV_*`` constants stay in lockstep).
EVENT_SCHEMA: Dict[int, Tuple[str, str, str]] = {
    EV_PORT_STATE: (
        "port",
        "new FSM state code (down=0 / init=1 / synchronized=2)",
        "unused (0)",
    ),
    EV_TX: (
        "sending port",
        "message type code (MessageType)",
        "payload: counter low bits (BEACON/BEACON_JOIN/LOG carry gc; INIT "
        "carries lc; INIT_ACK echoes; BEACON_MSB carries high bits)",
    ),
    EV_TX_BLOCKED: (
        "sending port",
        "message type code of the dropped message",
        "unused (0)",
    ),
    EV_RX: (
        "receiving port",
        "message type code (MessageType)",
        "decoded payload (same layout as EV_TX)",
    ),
    EV_LOST: (
        "link",
        "loss mode: LOST_WIRE=1 (dropped) / LOST_HEADER=2 (corrupted)",
        "unused (0)",
    ),
    EV_REJECT: (
        "receiving port",
        "reason: REJECT_RANGE=1 / REJECT_PARITY=2 / REJECT_UNDECODABLE=3",
        "offending delta in counter units (0 when undecodable)",
    ),
    EV_OWD: (
        "measuring port",
        "measured one-way delay d, counter units",
        "alpha (wire+pipeline constant), counter units",
    ),
    EV_JUMP: (
        "jumping port",
        "delta vs the free-running reference, counter units",
        "applied jump size (candidate - lc), counter units",
    ),
    EV_PEER_FAULT: (
        "declaring port",
        "counter jumps observed in the filter window",
        "rejects observed in the filter window",
    ),
    EV_CHECK: (
        "checker",
        "pairs checked this tick",
        "violations recorded this tick",
    ),
    EV_VIOLATION: (
        "violated subject (node or pair)",
        "interned invariant name id",
        "unused (0)",
    ),
    EV_QUARANTINE: (
        "quarantined node",
        "interned fault reason id",
        "unused (0)",
    ),
    EV_RELEASE: (
        "released node",
        "interned fault reason id",
        "unused (0)",
    ),
    EV_ALARM: (
        "monitored link",
        "observed offset, ticks",
        "configured bound, ticks",
    ),
    EV_DISC_OBSERVE: (
        "retired: emitted by nothing",
        "unused (0)",
        "unused (0)",
    ),
    EV_DISC_ACTION: (
        "retired: emitted by nothing",
        "unused (0)",
        "unused (0)",
    ),
    EV_LINK_STATE: (
        "retired: emitted by nothing",
        "unused (0)",
        "unused (0)",
    ),
    EV_LINK_RECONNECT: (
        "retired: emitted by nothing",
        "unused (0)",
        "unused (0)",
    ),
    EV_LINK_RESYNC: (
        "retired: emitted by nothing",
        "unused (0)",
        "unused (0)",
    ),
    EV_LINK_RELEASE: (
        "retired: emitted by nothing",
        "unused (0)",
        "unused (0)",
    ),
    EV_SHARD_GRANT: (
        "coordinator",
        "window round number (1-based)",
        "grant advance vs the previous round, fs",
    ),
    EV_SHARD_STALL: (
        "coordinator",
        "consecutive stalled rounds",
        "stall limit before the coordinator aborts",
    ),
    EV_SHARD_SERVICE: (
        "serviced shard (shard/<id>)",
        "records replayed from the shard this round",
        "shard lag: promise minus grant, fs (clamped at 0)",
    ),
    EV_SUPERVISOR_TASK: (
        "supervised task (task/<name>)",
        "state: running=0 / done=1 / retrying=2 / quarantined=3",
        "attempt number",
    ),
    EV_SUPERVISOR_RETRY: (
        "supervised task (task/<name>)",
        "failed attempt number",
        "backoff delay, scheduler slots",
    ),
    EV_SUPERVISOR_QUARANTINE: (
        "supervised task (task/<name>)",
        "interned failure-reason id",
        "attempts consumed",
    ),
}


def kind_name(kind: int) -> str:
    """Human-readable name of an event kind (``kind-<n>`` if unknown)."""
    return KIND_NAMES.get(kind, f"kind-{kind}")


def describe(record: Tuple[int, int, int, int, int], subjects) -> str:
    """One-line rendering of a record against a subject table."""
    time_fs, kind, subject, a, b = record
    try:
        who = subjects[subject]
    except (IndexError, KeyError):
        who = f"subject-{subject}"
    return f"t={time_fs} {kind_name(kind)} {who} a={a} b={b}"
