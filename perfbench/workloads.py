"""The three workloads: inputs, set-up, one timed pass, and the correctness gate.

Each workload is a closed loop with one client: an operation starts when
the previous one has returned.  ``prepare`` makes the seed's inputs, files
and oracles once per run, untimed; ``setup`` is the library's own set-up,
timed and repeated before every pass; a pass is a fixed, seeded list of
operations, the same in every pass of a run.  Only the library calls of an
operation are timed, which leaves the benchmark's own checking out.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import inputs
from csemigroups import cli, fastmember, semigroups, serialize
from csemigroups.errors import BudgetExceeded

STATUSES = ("ok", "wrong", "crashed", "inconclusive")


def classify(exit_codes, digest, expected):
    """Status of an op made of CLI calls, against its recorded digest.

    An exit code is None when the call raised instead of returning.  Exit 3
    is the library's inconclusive answer (a search ran out of budget); any
    other output that differs from the recording is wrong.
    """
    if None in exit_codes:
        return "crashed"
    if 3 in exit_codes:
        return "inconclusive"
    return "ok" if digest == expected else "wrong"


@dataclass
class Outcome:
    """Tallies of operations by status, their times and failure notes.

    ``times`` maps the key of a timed item of a pass to (operations in it,
    [(its time in seconds, the gauge's mark at its start)] over the passes
    so far).
    """

    ops: dict = field(default_factory=lambda: dict.fromkeys(STATUSES, 0))
    times: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    # the run's speed gauge (see gauge.py), timed after every timing
    gauge: object = None

    def add(self, status, ops, note=None):
        """Record ``ops`` operations with the given status."""
        self.ops[status] += ops
        if status != "ok" and len(self.notes) < 10:
            self.notes.append(" ".join(f"{status}: {note}".split())[:300])

    def time(self, key, ops, seconds):
        """Record one timing of item ``key``, which holds ``ops`` operations."""
        self.times.setdefault(key, (ops, []))[1].append((seconds, self.gauge.mark))
        self.gauge.tick()

    @property
    def attempted(self):
        return sum(self.ops.values())


def call_cli(argv, tracer=None):
    """Run ``csemigroups.cli.main`` in process: (exit code, stdout, seconds).

    Warnings the library prints on stderr are captured and dropped.
    """
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except (Exception, SystemExit) as exc:  # a traceback is a crash, not an answer
        code = None
        out.write(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    text = out.getvalue()
    if tracer is not None:
        tracer.counts["cli.main.stdout_bytes"] += len(text.encode())
    return code, text, seconds


def write_document(path, generators):
    path.write_text(json.dumps({"p": len(generators[0]), "generators": [list(g) for g in generators]}))
    return str(path)


def run_commands(argvs, tracer=None):
    """Run CLI calls in order: ([(command, exit code, stdout)], seconds)."""
    transcript = []
    seconds = 0.0
    for argv in argvs:
        code, text, dt = call_cli(argv, tracer)
        transcript.append((argv[0], code, text))
        seconds += dt
    return transcript, seconds


def transcript_digest(transcript):
    """The digest that ``golden.json`` records for an op's CLI calls."""
    text = "".join(f"{command}\n{code}\n{out}\n" for command, code, out in transcript)
    return hashlib.sha256(text.encode()).hexdigest()


def enumerate_argv(job, files):
    command, fixture, *rest = inputs.ENUMERATE_JOBS[job]
    return [command, files[fixture], *rest]


def translate_argvs(item):
    commands = inputs.TRANSLATE_COMMANDS if item["kind"] == "c" else ("gaps",)
    return [[command, item["path"]] for command in commands]


def prepare_translate(item, path):
    """Write ``item``'s document and, for a C-semigroup, its oracle gap set."""
    item["path"] = write_document(path, item["generators"])
    if item["kind"] == "c":
        cone = inputs.ConeTest(item["rays"])
        item["gaps"] = inputs.brute_gaps([tuple(g) for g in item["generators"]], cone, item["max_grade"])
    return item


class Enumerate:
    """Genus tree and fiber jobs through the CLI; one op is one semigroup.

    A job emits all its semigroups at once, so each of them is given the
    job's time divided by their number as its latency.
    """

    name = "enumerate"

    def __init__(self, seed, workdir, golden):
        self.seed = seed
        self.workdir = workdir
        self.golden = golden["enumerate"]

    def prepare(self):
        self.files = {
            name: write_document(self.workdir / f"{name}.json", generators)
            for name, generators in inputs.FIXTURES.items()
        }

    def setup(self):
        for path in self.files.values():
            serialize.load_semigroup(path)

    def run_pass(self, index, outcome, tracer=None):
        total = 0.0
        for job in inputs.enumerate_order(self.seed, index):
            if tracer is not None:
                tracer.run += 1
            transcript, seconds = run_commands([enumerate_argv(job, self.files)], tracer)
            expected = self.golden[job]
            (_, code, text), = transcript
            status = classify([code], transcript_digest(transcript), expected["digest"])
            outcome.add(status, expected["ops"], f"{job}: {text}")
            outcome.time(job, expected["ops"], seconds)
            total += seconds
        return total


def check_member(x, generators, inside, coeffs, gap_inside, fast, ctx):
    """Do the kernels agree, and do both witnesses rebuild ``x``?"""
    if fast.member != inside or gap_inside != inside:
        return False
    if not inside:
        return fast.reason in ("outside-cone", "exhausted")
    rebuilt = [0] * len(x)
    for c, g in zip(coeffs, generators):
        rebuilt = [r + c * gi for r, gi in zip(rebuilt, g)]
    if tuple(rebuilt) != x:
        return False
    if fast.reason == "zero":
        return not any(x)
    if fast.remainder not in ctx.core:
        return False
    rebuilt = list(fast.remainder)
    for c, n in zip(fast.coeffs, ctx.ray_elements):
        rebuilt = [r + c * ni for r, ni in zip(rebuilt, n)]
    return tuple(rebuilt) == x


class Member:
    """Membership queries through every kernel; one op is one query.

    Every pass asks the seed's block of queries of kernels built afresh
    (``GenSemigroup`` memoises its answers), so the passes of a run do the
    same work.
    """

    name = "member"

    def __init__(self, seed, workdir, golden):
        self.seed = seed

    def prepare(self):
        self.block = inputs.member_block(self.seed)

    def setup(self):
        self.kernels = {}
        for name, generators, _, _, has_gap_form, _ in inputs.MEMBER_FIXTURES:
            gen = semigroups.GenSemigroup(generators)
            gap = semigroups.gaps(gen) if has_gap_form else None
            self.kernels[name] = (gen, gap, fastmember.precompute(gen))

    def run_pass(self, index, outcome, tracer=None):
        total = 0.0
        for i, (name, x) in enumerate(self.block):
            gen, gap, ctx = self.kernels[name]
            if tracer is not None:
                tracer.run += 1
            start = time.perf_counter()
            try:
                inside = gen.contains(x)
                coeffs = gen.witness(x) if inside else None
                gap_inside = gap.contains(x) if gap is not None else inside
                fast = fastmember.fast_member(ctx, x)
            except BudgetExceeded as exc:
                status, note = "inconclusive", exc
            except Exception as exc:  # noqa: BLE001  (a crash is a measured outcome)
                status, note = "crashed", f"{type(exc).__name__}: {exc}"
            else:
                status = None
            seconds = time.perf_counter() - start
            if status is None:
                ok = check_member(x, gen.generators, inside, coeffs, gap_inside, fast, ctx)
                status, note = ("ok" if ok else "wrong"), (inside, gap_inside, fast)
            outcome.add(status, 1, f"{name} {x}: {note}")
            outcome.time(i, 1, seconds)
            total += seconds
        return total


class Translate:
    """Generator-to-gap translation plus the follow-up commands; one op is one input.

    The undecided input runs once per run, before the passes: it takes
    longer than a whole pass, so a pass that held it could not be repeated
    within a run.
    """

    name = "translate"

    def __init__(self, seed, workdir, golden):
        self.seed = seed
        self.workdir = workdir
        self.golden = golden["translate"]

    def prepare(self):
        self.items = []
        for i, key in enumerate(inputs.translate_family(self.seed)):
            kind, shape, variant = key.split(":")
            item = inputs.translate_input(shape, int(variant), kind)
            # the oracle runs here, outside the timed phase
            self.items.append(prepare_translate(item, self.workdir / f"translate-{i}.json"))
        self.undecided = prepare_translate(
            {"key": "undecided", "kind": "undecided", "generators": inputs.UNDECIDED},
            self.workdir / "undecided.json",
        )

    def setup(self):
        # the library warns on stderr about the redundant generators
        with redirect_stderr(io.StringIO()):
            for item in self.items:
                serialize.load_semigroup(item["path"])

    def run_once(self, outcome, tracer=None):
        return self._run(self.undecided, outcome, tracer)

    def run_pass(self, index, outcome, tracer=None):
        total = 0.0
        for item in self.items:
            seconds = self._run(item, outcome, tracer)
            outcome.time(item["key"], 1, seconds)
            total += seconds
        return total

    def _run(self, item, outcome, tracer):
        if tracer is not None:
            tracer.run += 1
        transcript, seconds = run_commands(translate_argvs(item), tracer)
        status, note = self.judge(item, transcript)
        outcome.add(status, 1, f"{item['key']}: {note.strip()} ({seconds:.2f} s)")
        return seconds

    def judge(self, item, transcript):
        """(status, note) of one input's transcript of (command, exit code, stdout)."""
        codes = [code for _, code, _ in transcript]
        first = transcript[0][2]
        if item["kind"] == "undecided":
            # the true answer is "not a C-semigroup"; exit 3 is inconclusive
            refused = codes == [2] and json.loads(first).get("error") == "NotCSemigroup"
            return ("ok" if refused else classify(codes, None, "a refusal")), first
        # name the calls that crashed or gave up, else show every output
        abnormal = [call for call in transcript if call[1] not in (0, 2)]
        text = "; ".join(f"{c} exit {code}: {out}" for c, code, out in abnormal or transcript)
        status = classify(codes, transcript_digest(transcript), self.golden[item["key"]])
        if status != "ok":
            return status, text
        doc = json.loads(first)
        if item["kind"] == "reject":
            if codes[0] != 2 or doc.get("error") != "NotCSemigroup":
                return "wrong", text
        elif {tuple(h) for h in doc["gaps"]} != item["gaps"]:
            return "wrong", f"gaps differ from the brute-force closure: {first}"
        return "ok", ""


WORKLOADS = {w.name: w for w in (Enumerate, Member, Translate)}
