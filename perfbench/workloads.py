"""The three benchmark workloads: inputs, one op each, and answer checks.

Every workload is built by ``setup`` (the timed set-up phase) and then
yields passes of ops.  An op is split into an untimed ``prepare`` that
returns the timed call, and an ``answer`` that turns the call's result into
the op's answer after checking the laws it must obey.  ``Workload.check``
compares that answer with the one recorded in ``perfbench/expected`` and
``record.py`` stores it there, so both use the same op body and law checks.
Answers are set-level facts (faces, entry keys, shapes, oracle reports),
so a correct change that rewrites cell syntax still passes.
"""

from __future__ import annotations

import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Traced functions are called through their modules, so that the wrappers
# the traced run installs on module attributes see these calls too.
from staircase import cli, decompose, geometry, jsonio, qe
from staircase.discrete import DiscreteDownset, DiscreteIdeal
from staircase.geometry import Face, all_faces
from staircase.oracle import random_downset, random_interval, random_upset

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

# The ROADMAP acceptance corpora: (seed, n, cell budget).
CORPUS = [(s, 2, 8) for s in range(100)] + [(s, 3, 5) for s in range(10_000, 10_025)]

# Instance seeds of the traced decompose run: a fixed part of the corpus,
# about 60% of a pass by time with the n=3 heavy tail (seed 10014)
# included, so that a traced run, which runs its ops twice, stays near a
# minute.
TRACED_DECOMPOSE = frozenset(range(50)) | frozenset(range(10_012, 10_025))

# Query points per corpus instance whose shapes are recorded; each
# membership op picks one of them by the run seed.
POINT_POOL = 32


class WrongAnswer(Exception):
    """An op's result breaks a law it must obey."""


@dataclass
class Op:
    instance: str  # stable id, e.g. "n3-s10014"
    seed: int  # generator seed of the instance
    n: int
    cells: int  # input cells (generators for a discrete ideal)
    prepare: Callable[[], Callable[[], object]]  # untimed; returns the timed call
    answer: Callable[[object], object]  # the recorded form; raises WrongAnswer
    slot: tuple  # where the answer sits in the workload's expected file


class Workload:
    """Set-up, op lists and the answer check shared by the workloads."""

    name: str

    def __init__(self, expected: dict | None):
        self.expected = expected

    def setup(self) -> None:
        raise NotImplementedError

    def all_ops(self) -> list[Op]:
        """Every op whose answer is recorded, in a fixed order."""
        raise NotImplementedError

    def pass_ops(self, rng: random.Random) -> list[Op]:
        """One pass of a measured run, ordered by the run seed."""
        ops = self.all_ops()
        rng.shuffle(ops)
        return ops

    def traced_ops(self) -> list[Op]:
        """The fixed ops of a traced run; they depend on neither seed nor speed."""
        return self.all_ops()

    def check(self, op: Op, result) -> str | None:
        """None when the result obeys its laws and matches the recorded answer."""
        try:
            got = op.answer(result)
        except WrongAnswer as exc:
            return str(exc)
        want = self.expected
        for key in op.slot:
            want = want[key]
        return None if got == want else f"answer {got!r:.300} differs from recorded {want!r:.300}"


def load_expected(name: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def face_key(f: Face) -> str:
    return ",".join(str(i + 1) for i in sorted(f.coords))


def instance_id(seed: int, n: int) -> str:
    return f"n{n}-s{seed}"


def generate_corpus() -> list[tuple[int, int, dict]]:
    """(seed, n, instance JSON) for every corpus instance."""
    return [
        (seed, n, jsonio.instance_to_json(random_downset(seed, n, budget)))
        for seed, n, budget in CORPUS
    ]


# -- decompose ----------------------------------------------------------------


def decompose_call(d):
    pd = decompose.primary_decomposition(d)
    recon = decompose.reconstruct(decompose.irreducible_family(d, table=pd.table), d)
    return d, pd, recon


def decompose_answer(result) -> dict:
    d, pd, recon = result
    if not qe.equals(recon, d.carrier):
        raise WrongAnswer("reconstruction differs from the carrier")
    table = pd.table
    return {
        "associated": sorted(face_key(f) for f in table.associated_faces()),
        "nonzero": sorted(
            f"{face_key(e.tau)}|{face_key(e.sigma)}" for e in table.nonzero_items()
        ),
    }


class Decompose(Workload):
    """One op: primary decomposition, irreducible family and reconstruction
    of one corpus instance, loaded from its instance JSON as the CLI does."""

    name = "decompose"

    def setup(self) -> None:
        self.corpus = generate_corpus()

    def _op(self, seed: int, n: int, obj: dict) -> Op:
        key = instance_id(seed, n)

        def prepare():
            d = jsonio.instance_from_json(obj)
            return lambda: decompose_call(d)

        return Op(key, seed, n, len(obj["set"]["cells"]), prepare, decompose_answer, (key,))

    def all_ops(self) -> list[Op]:
        return [self._op(seed, n, obj) for seed, n, obj in self.corpus]

    def traced_ops(self) -> list[Op]:
        return [op for op in self.all_ops() if op.seed in TRACED_DECOMPOSE]


# -- membership ---------------------------------------------------------------


def point_pool(seed: int, n: int) -> list[tuple[Fraction, ...]]:
    """The recorded query points of one instance, drawn like the boundary-law
    acceptance test draws them."""
    rng = random.Random(f"membership-{seed}")
    return [
        tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 4))) for _ in range(n))
        for _ in range(POINT_POOL)
    ]


def membership_call(d, faces, bounds, p):
    sh = geometry.shape_at(d, p)
    return sh, [bounds[f].carrier.contains(p) for f in faces]


class Membership(Workload):
    """One op: the shape of a corpus downset at one query point, and carrier
    membership of that point in every face's upper boundary."""

    name = "membership"

    def setup(self) -> None:
        self.items = []
        for seed, n, obj in generate_corpus():
            d = jsonio.instance_from_json(obj)
            faces = all_faces(n)
            bounds = {f: geometry.upper_boundary(d, f) for f in faces}
            self.items.append((seed, n, d, faces, bounds, point_pool(seed, n)))

    def _op(self, seed, n, d, faces, bounds, pool, index) -> Op:
        key = instance_id(seed, n)
        p = pool[index]

        def answer(result) -> list[str]:
            sh, inside = result
            for f, member in zip(faces, inside):
                if member != (f in sh):  # criterion 3: p in boundary_f iff f in shape
                    raise WrongAnswer(
                        f"boundary law fails at {[str(x) for x in p]} face [{face_key(f)}]"
                    )
            return [face_key(f) for f in faces if f in sh]

        return Op(
            key, seed, n, len(d.carrier.cells),
            lambda: lambda: membership_call(d, faces, bounds, p), answer, (key, index),
        )

    def all_ops(self) -> list[Op]:
        return [self._op(*item, i) for item in self.items for i in range(POINT_POOL)]

    def pass_ops(self, rng: random.Random) -> list[Op]:
        """One op per instance, at a point the run seed picks."""
        ops = [self._op(*item, rng.randrange(POINT_POOL)) for item in self.items]
        rng.shuffle(ops)
        return ops


# -- verify -------------------------------------------------------------------


def random_ideal(seed: int, n: int) -> DiscreteDownset:
    rng = random.Random(seed)
    gens = tuple(
        tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 6))
    )
    return DiscreteDownset(DiscreteIdeal(n, gens))


# (kind, n, first seed, count, generator); the mix is fixed, the run seed
# only orders it.
VERIFY_MIX = [
    ("downset", 2, 20_000, 20, lambda s: random_downset(s, 2, 5)),
    ("upset", 2, 21_000, 16, lambda s: random_upset(s, 2, 4)),
    ("interval", 2, 22_000, 6, lambda s: random_interval(s, 2, 3)),
    ("discrete", 2, 23_000, 30, lambda s: random_ideal(s, 2)),
    ("discrete", 3, 24_000, 28, lambda s: random_ideal(s, 3)),
]
# Oracle grid: step 1/2 and probe 1/8 (the CLI defaults) on the box [-2, 2]^n.
VERIFY_ARGS = ["--box", "2"]


def input_cells(obj: dict) -> int:
    if obj["kind"] == "discrete":
        return len(obj["generators"])
    if obj["kind"] == "interval":
        return len(obj["upset"]["cells"]) + len(obj["downset"]["cells"])
    return len(obj["set"]["cells"])


def verify_call(path: str, out: str) -> tuple[int, str]:
    """``staircase verify`` in-process; the exit code and what went to stderr."""
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.run(["verify", *VERIFY_ARGS, "--out", out, path])
    return code, err.getvalue()


class Verify(Workload):
    """One op: one in-process ``staircase verify`` call on an instance file."""

    name = "verify"

    def __init__(self, expected: dict | None, workdir: str):
        super().__init__(expected)
        self.workdir = workdir

    def setup(self) -> None:
        # A fresh directory per set-up: on an overlay file system, overwriting
        # existing files was slower and several times noisier than creating
        # new ones.
        files_dir = tempfile.mkdtemp(prefix="files-", dir=self.workdir)
        self.files = []
        for kind, n, first, count, make in VERIFY_MIX:
            for seed in range(first, first + count):
                obj = jsonio.instance_to_json(make(seed))
                key = f"{kind}-{instance_id(seed, n)}"
                path = os.path.join(files_dir, f"{key}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(jsonio.dumps(obj))
                self.files.append((key, seed, n, input_cells(obj), path))

    def _op(self, key, seed, n, cells, path) -> Op:
        out = path.removesuffix(".json") + ".report.json"

        def prepare():
            if os.path.exists(out):
                os.remove(out)  # a stale report must not pass for a new one
            return lambda: verify_call(path, out)

        def answer(result) -> dict:
            code, err = result
            if code != 0:
                raise WrongAnswer(f"exit code {code}: {err.strip()}")
            with open(out, encoding="utf-8") as fh:
                return json.load(fh)

        return Op(key, seed, n, cells, prepare, answer, (key,))

    def all_ops(self) -> list[Op]:
        return [self._op(*f) for f in self.files]


def make(name: str, workdir: str, expected: dict | None):
    if name == "decompose":
        return Decompose(expected)
    if name == "membership":
        return Membership(expected)
    if name == "verify":
        return Verify(expected, workdir)
    raise ValueError(f"unknown workload {name!r}")
