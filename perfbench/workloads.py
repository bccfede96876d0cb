"""The three workloads: seeded inputs, the fixed command cycle each one
repeats, and the output gate every timed command passes.

Every input is generated from the workload seed with `dnacipher.synth` and
`random_key`; the CLI only ever sees the files written here.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from dnacipher.cipher import RgbImage, encrypt, image_to_digits
from dnacipher.dna import DECODE, Base
from dnacipher.keystream import SecretKey, format_key_text, keystreams, random_key
from dnacipher.ppm import read_ppm, write_ppm
from dnacipher.synth import constant_image, natural_image


@dataclass(frozen=True)
class Sizes:
    image: int  # side of the square images of cipher-bulk and kpa-break
    small: int  # side of the square avalanche image
    trials: int  # avalanche trials per command


FULL = Sizes(image=1024, small=64, trials=1000)
SMOKE = Sizes(image=32, small=16, trials=50)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# A check reads the command's outputs from the work directory and returns an
# error message, or None when the outputs are right.
Check = Callable[[Path, str], "str | None"]


@dataclass
class Command:
    kind: str  # the CLI subcommand, used to group timings
    args: list[str]
    expect_code: int
    check: Check
    outputs: list[str]  # files whose bytes must repeat (and match pins)
    mpix: float  # megapixels the command transforms
    trials: int = 0


@dataclass
class Workload:
    image: str  # geometry, for the printed header
    inputs: dict[str, str]  # generated file -> sha256, for provenance
    cycles: list[list[Command]]  # run in turn, cycle i uses cycles[i % len]


@dataclass
class Outcome:
    kind: str
    wall_s: float
    maxrss_kb: int
    error: str | None
    mpix: float
    trials: int
    stderr: str


def _write(workdir: Path, name: str, data: bytes, inputs: dict[str, str]) -> None:
    (workdir / name).write_bytes(data)
    inputs[name] = sha256(data)


def _write_key(workdir: Path, name: str, key: SecretKey, inputs) -> None:
    _write(workdir, name, format_key_text(key).encode("utf-8"), inputs)


def _same_bytes(expected: bytes, out: str) -> Check:
    def check(workdir: Path, stderr: str) -> str | None:
        if (workdir / out).read_bytes() != expected:
            return f"{out} differs from the plaintext"
        return None

    return check


def _cipher_check(plain: RgbImage, key: SecretKey, out: str) -> Check:
    # Key-independent structure the cipher must show: cipher g == b exactly
    # where the plaintext b digit is the one k1 maps to C (C is the identity
    # of base addition).  This holds for every correct ciphertext, so it
    # checks encrypt on any seed without re-running it.
    map_c = int(DECODE[key.k1 - 1, Base.C])
    plain_b = image_to_digits(plain).b
    plain_bytes = write_ppm(plain)

    def check(workdir: Path, stderr: str) -> str | None:
        data = (workdir / out).read_bytes()
        if data == plain_bytes:
            return f"{out} equals the plaintext"
        try:
            c = image_to_digits(read_ppm(data))
        except ValueError as err:
            return f"{out} is not a valid image: {err}"
        if c.b.shape != plain_b.shape or not np.array_equal(c.g == c.b, plain_b == map_c):
            return f"{out} breaks the equal-g/b structure of the cipher"
        return None

    return check


def _report_check(report: str, want: dict[str, str], min_witness2: int = 0) -> Check:
    def check(workdir: Path, stderr: str) -> str | None:
        text = (workdir / report).read_text(errors="replace")
        fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
        for name, value in want.items():
            if fields.get(name) != value:
                return f"{report}: {name}={fields.get(name)} expected {value}"
        if min_witness2 and int(fields.get("step2_witness", "-1")) < min_witness2:
            return f"{report}: step2_witness={fields.get('step2_witness')} < {min_witness2}"
        return None

    return check


def _no_step2(report: str, eqk: str) -> Check:
    inner = _report_check(report, {"status": "failure", "failure_stage": "NoStep2Witness"})

    def check(workdir: Path, stderr: str) -> str | None:
        if "failure_stage=NoStep2Witness" not in stderr:
            return "stderr does not name NoStep2Witness"
        if (workdir / eqk).exists():
            return f"{eqk} written although the attack failed"
        return inner(workdir, stderr)

    return check


def cipher_bulk(workdir: Path, seed: int, sizes: Sizes) -> Workload:
    """encrypt then decrypt of large natural images under seeded keys: the
    logistic-orbit loop and the table stages do the work."""
    rng = np.random.default_rng(seed)
    n = sizes.image
    inputs: dict[str, str] = {}
    cycles = []
    for k in range(2):
        key = random_key(rng)
        img = natural_image(n, n, int(rng.integers(2**31)))
        plain = write_ppm(img)
        _write_key(workdir, f"key{k}.txt", key, inputs)
        _write(workdir, f"plain{k}.ppm", plain, inputs)
        mpix = n * n / 1e6
        cycles.append([
            Command("encrypt",
                    ["encrypt", "--key", f"key{k}.txt", "--in", f"plain{k}.ppm",
                     "--out", f"cipher{k}.ppm"],
                    0, _cipher_check(img, key, f"cipher{k}.ppm"), [f"cipher{k}.ppm"], mpix),
            Command("decrypt",
                    ["decrypt", "--key", f"key{k}.txt", "--in", f"cipher{k}.ppm",
                     "--out", f"round{k}.ppm"],
                    0, _same_bytes(plain, f"round{k}.ppm"), [f"round{k}.ppm"], mpix),
        ])
    return Workload(f"{n}x{n}", inputs, cycles)


def kpa_pairs(seed: int, n: int) -> dict[str, tuple[RgbImage, RgbImage]]:
    """Plain/cipher pairs under one seeded key: the known natural pair, a
    second natural pair, a pair whose stage-2 and stage-3 witnesses sit in
    its last row, and a constant pair with no stage-2 witness at all.

    The constant colour repeats the digit that k1 maps to C, so every
    post-addition triple is (C, C, C): both k1 candidates predict the same
    pattern everywhere and stage 2 must fail.  The late pair keeps that body
    and gets a natural last row, so natural images' habit of offering every
    witness at positions 0-2 cannot hide the cost of the scan.
    """
    rng = np.random.default_rng(seed)
    key = random_key(rng)
    streams = keystreams(key, n * n)
    known = natural_image(n, n, int(rng.integers(2**31)))
    other = natural_image(n, n, int(rng.integers(2**31)))
    digit = int(DECODE[key.k1 - 1, Base.C])
    flat = constant_image(n, n, (85 * digit,) * 3)
    late = RgbImage(n, n, flat.pixels.copy())
    late.pixels[-n:] = natural_image(n, 1, int(rng.integers(2**31))).pixels
    return {
        name: (img, encrypt(img, key, streams))
        for name, img in (("known", known), ("other", other), ("late", late), ("flat", flat))
    }


def kpa_break(workdir: Path, seed: int, sizes: Sizes) -> Workload:
    """attack on a known pair, then eqdecrypt of a second ciphertext under
    the same key; plus a late-witness pair and a constant pair that fails.
    The keystream does no work here."""
    n = sizes.image
    inputs: dict[str, str] = {}
    pairs = kpa_pairs(seed, n)
    for name, (plain, cipher) in pairs.items():
        _write(workdir, f"{name}.ppm", write_ppm(plain), inputs)
        _write(workdir, f"{name}_c.ppm", write_ppm(cipher), inputs)
    mpix = n * n / 1e6
    success = {"status": "success"}

    def attack(name: str, code: int, check: Check) -> Command:
        return Command(
            "attack",
            ["attack", "--plain", f"{name}.ppm", "--cipher", f"{name}_c.ppm",
             "--out", f"{name}.eqk", "--report", f"{name}.txt"],
            code, check,
            [f"{name}.txt"] + ([f"{name}.eqk"] if code == 0 else []), mpix,
        )

    cycle = [
        attack("known", 0, _report_check("known.txt", success)),
        Command("eqdecrypt",
                ["eqdecrypt", "--eqkey", "known.eqk", "--in", "other_c.ppm",
                 "--out", "other_d.ppm"],
                0, _same_bytes(write_ppm(pairs["other"][0]), "other_d.ppm"),
                ["other_d.ppm"], mpix),
        attack("late", 0, _report_check("late.txt", success, min_witness2=4 * n * (n - 1))),
        attack("flat", 2, _no_step2("flat.txt", "flat.eqk")),
    ]
    return Workload(f"{n}x{n}", inputs, [cycle])


def avalanche_sweep(workdir: Path, seed: int, sizes: Sizes) -> Workload:
    """avalanche on a small image: many full-image encrypts with injected
    streams; the keystream is computed once per command."""
    rng = np.random.default_rng(seed)
    s, trials = sizes.small, sizes.trials
    inputs: dict[str, str] = {}
    cycles = []
    want = {"trials": str(trials), "locality_violations": "0"}
    for k in range(2):
        _write_key(workdir, f"key{k}.txt", random_key(rng), inputs)
        _write(workdir, f"plain{k}.ppm",
               write_ppm(natural_image(s, s, int(rng.integers(2**31)))), inputs)
        cycles.append([
            Command("avalanche",
                    ["avalanche", "--key", f"key{k}.txt", "--in", f"plain{k}.ppm",
                     "--trials", str(trials), "--report", f"av{k}.txt",
                     "--seed", str(int(rng.integers(2**31)))],
                    0, _report_check(f"av{k}.txt", want), [f"av{k}.txt"],
                    trials * s * s / 1e6, trials),
        ])
    return Workload(f"{s}x{s}", inputs, cycles)


WORKLOADS = {
    "cipher-bulk": cipher_bulk,
    "kpa-break": kpa_break,
    "avalanche-sweep": avalanche_sweep,
}


def spawn(argv: list[str], env: dict[str, str], cwd: Path) -> tuple[int, float, int, str]:
    """Run one process to exit: (exit code, wall seconds from start to exit,
    max RSS in KiB from its own rusage, stderr text)."""
    err_path = cwd / ".stderr"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, err_path.read_text(errors="replace")


@dataclass
class Gate:
    """Checks each command's exit code and outputs.  Output bytes must repeat
    across cycles; `expected` may be pre-filled with pinned sha256 values."""

    workdir: Path
    expected: dict[str, str] = field(default_factory=dict)

    def judge(self, cmd: Command, code: int, stderr: str) -> str | None:
        if code != cmd.expect_code:
            return f"{cmd.kind}: exit {code}, expected {cmd.expect_code}: {stderr.strip()[-200:]}"
        for out in cmd.outputs:
            if not (self.workdir / out).is_file():
                return f"{cmd.kind}: {out} was not written"
        error = cmd.check(self.workdir, stderr)
        if error:
            return f"{cmd.kind}: {error}"
        for out in cmd.outputs:
            digest = sha256((self.workdir / out).read_bytes())
            if self.expected.setdefault(out, digest) != digest:
                return f"{cmd.kind}: sha256 of {out} is {digest}, expected {self.expected[out]}"
        return None


def run_command(cmd: Command, gate: Gate, python: str, env: dict[str, str]) -> Outcome:
    # A file left by the previous cycle must not pass for this command's output.
    for out in cmd.outputs:
        (gate.workdir / out).unlink(missing_ok=True)
    code, wall, rss, stderr = spawn([python, "-m", "dnacipher", *cmd.args], env, gate.workdir)
    return Outcome(cmd.kind, wall, rss, gate.judge(cmd, code, stderr), cmd.mpix, cmd.trials, stderr)
