"""The four benchmark workloads and the checks on their outputs.

A workload is a fixed sequence of `mdlab` CLI commands. The seed picks
only the free inputs: the exponent pairs and the unit of the `cap`
isomorphism, and the coefficients (a, b) of the large-prime `roots`
command. The scans are exhaustive sweeps and do not depend on it.

Outputs are checked in one of two ways. Outputs that do not depend on the
seed, and every output at DEFAULT_SEED, must hash to the sha256 recorded
in digests.json on the seed code. Seed-dependent outputs at other seeds
are checked structurally: `cap` must print the power-map k predicted from
the chosen pair and the matching certificate, and the 2^31 - 1 root
count must equal the one sympy's galoistools computes.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
BIG_P = (1 << 31) - 1
ROOTS_DEGREE = 1000
CAP_P = 181

DIGESTS_PATH = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Command:
    """One `mdlab` invocation.

    key names the output in digests.json. A command with `report` set
    writes its report to the path given with --out; otherwise its stdout
    is the output. A `seeded` command's output depends on the seed; at
    other seeds than DEFAULT_SEED it is checked by `check`, which returns
    an error message or None.
    """

    key: str
    args: tuple[str, ...]
    report: bool = False
    seeded: bool = False
    check: Callable[[bytes], str | None] | None = None

    def argv(self, out_path: Path) -> list[str]:
        return [*self.args, "--out", str(out_path)] if self.report else list(self.args)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    commands: tuple[Command, ...]
    inputs: dict


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def verify(cmd: Command, seed: int, output: bytes, digests: dict[str, str]) -> str | None:
    """Error message for a wrong output, or None when it checks out."""
    if not cmd.seeded or seed == DEFAULT_SEED:
        want = digests.get(cmd.key)
        if want is None:
            return "no recorded digest"
        got = sha256(output)
        return None if got == want else f"sha256 {got[:12]} != recorded {want[:12]}"
    return cmd.check(output)


# --- cap: a same-orbit pair at the dense-matrix cap ---

def _fold(x: int, r: int) -> int:
    x %= r
    return x if x else r


def cap_inputs(seed: int) -> tuple[tuple[int, int], tuple[int, int], int]:
    """(d1, d2, unit) with d1 = unit * d2 componentwise mod q - 1."""
    r = CAP_P - 1
    if seed == DEFAULT_SEED:
        return (7, 49), (1, 7), 7
    rng = random.Random(f"cap:{seed}")
    m2, n2 = rng.randint(1, r), rng.randint(1, r)
    unit = rng.choice([u for u in range(2, r) if math.gcd(u, r) == 1])
    return (_fold(unit * m2, r), _fold(unit * n2, r)), (m2, n2), unit


def predicted_power_k(d1: tuple[int, int], d2: tuple[int, int]) -> int:
    """Smallest unit k of Z/(q-1) with k * d2 = d1 componentwise."""
    r = CAP_P - 1
    return next(k for k in range(1, r + 1) if math.gcd(k, r) == 1
                and (k * d2[0] - d1[0]) % r == 0 and (k * d2[1] - d1[1]) % r == 0)


def _cap_check(k: int) -> Callable[[bytes], str | None]:
    def check(output: bytes) -> str | None:
        lines = output.decode("utf-8").splitlines()
        want = ["unit orbits match", f"isomorphic via power map k={k}"]
        if lines[:2] != want or len(lines) != 3 or not lines[2].startswith("certificate: "):
            return f"expected {want} and a certificate, got {lines[:2]}"
        q = CAP_P
        expected = [pow(x1, k, q) * q + x2 for x1 in range(q) for x2 in range(q)]
        if json.loads(lines[2][len("certificate: "):]) != expected:
            return f"certificate is not the power map k={k}"
        return None
    return check


# --- roots: the large-prime gcd route ---

def roots_inputs(seed: int) -> tuple[int, int]:
    if seed == DEFAULT_SEED:
        return -2, 1
    rng = random.Random(f"roots:{seed}")
    return rng.randint(1, BIG_P - 1), rng.randint(1, BIG_P - 1)


def oracle_root_count(p: int, degree: int, a: int, b: int) -> int:
    """deg gcd(X^d + aX + b, X^p - X) by sympy's dense GF(p) arithmetic."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_gcd, gf_pow_mod, gf_sub

    f = [1] + [0] * (degree - 2) + [a % p, b % p]  # highest degree first
    xp = gf_pow_mod([1, 0], p, f, p, ZZ)
    return len(gf_gcd(f, gf_sub(xp, [1, 0], p, ZZ), p, ZZ)) - 1


def _roots_check(count: int) -> Callable[[bytes], str | None]:
    def check(output: bytes) -> str | None:
        want = f"distinct roots: {count}\n".encode()
        return None if output == want else f"got {output[:40]!r}, the oracle says {count}"
    return check


# --- the workloads ---

NAMES = ("conjecture", "exercise", "roots", "cap")


def build(name: str, seed: int) -> Workload:
    """Commands and expected outputs of a workload. For non-default seeds
    this computes the independent oracles, so call it outside timing."""
    if name == "conjecture":
        commands = (
            Command("conjecture.gf4", ("conjecture", "--p", "2", "--k", "2"), report=True),
            Command("conjecture.gf5", ("conjecture", "--p", "5"), report=True),
            Command("conjecture.gf7", ("conjecture", "--p", "7"), report=True),
        )
        return Workload(name, seed, commands, {})
    if name == "exercise":
        commands = (Command("exercise.fields", ("exercise", "--fields", "8,9,16"), report=True),)
        return Workload(name, seed, commands, {})
    if name == "roots":
        a, b = roots_inputs(seed)
        check = None if seed == DEFAULT_SEED else _roots_check(
            oracle_root_count(BIG_P, ROOTS_DEGREE, a, b))
        commands = (
            Command("roots.theorem", ("theorem", "--pmax", "199", "--digraphs"), report=True),
            Command("roots.bigp", ("roots", "--p", str(BIG_P), "--degree", str(ROOTS_DEGREE),
                                   "--a", str(a), "--b", str(b), "--method", "gcd"),
                    seeded=True, check=check),
        )
        return Workload(name, seed, commands, {"a": a, "b": b})
    if name == "cap":
        d1, d2, unit = cap_inputs(seed)
        k = predicted_power_k(d1, d2)
        commands = (Command("cap.iso", ("iso", "--p", str(CAP_P), "--d1", "%d,%d" % d1,
                                        "--d2", "%d,%d" % d2),
                            seeded=True, check=_cap_check(k)),)
        return Workload(name, seed, commands, {"d1": d1, "d2": d2, "unit": unit, "k": k})
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
