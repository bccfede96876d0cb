"""Command-line front end: key generation, encryption, decryption, the
known-plaintext attack, equivalent-key decryption, and the defect reports.

Exit codes: 0 success, 1 malformed input, 2 attack witness failure,
3 I/O failure.  Outputs are written atomically (temp file + rename) and
contain no timestamps, so identical inputs give byte-identical files.
"""

# `encrypt` and `decrypt` run bytes in, bytes out on the numpy-free `core`
# wherever the kernel library loads, and through the numpy `cipher` exactly
# where it does not (`core.orbit_backend()` then says "python: ..."); every
# other command imports its numpy modules when it runs.

from __future__ import annotations

import argparse
import os
import sys

from . import core
from .core import KeystreamDegenerationError, SecretKey, parse_key_text

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NO_WITNESS = 2
EXIT_IO = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # usage errors are malformed input, not argparse's default exit 2
    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError as err:
        raise CliError(f"input file does not exist: {path}", EXIT_IO) from err
    except OSError as err:
        raise CliError(f"cannot read {path}: {err}", EXIT_IO) from err


def _write_atomic(path: str, data: bytes | bytearray, mode: int = 0o666) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    # os.urandom rather than secrets, which would import hashlib on every command
    tmp = os.path.join(directory, f".tmp-dnacipher-{os.urandom(8).hex()}")
    try:  # like open(): the file gets `mode` less the umask
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), mode)
    except OSError as err:
        raise CliError(f"cannot create output in {directory}: {err}", EXIT_IO) from err
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as err:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise CliError(f"cannot write {path}: {err}", EXIT_IO) from err


def _load_key(path: str) -> SecretKey:
    text = _read_bytes(path).decode("utf-8", errors="replace")
    try:
        return parse_key_text(text)
    except ValueError as err:
        raise CliError(f"bad key file {path}: {err}", EXIT_BAD_INPUT) from err


def _parse_image(path: str, parse, data: bytes):
    """`parse(data)`, the bytes of the image file `path`; its ValueError is
    a bad image."""
    try:
        return parse(data)
    except ValueError as err:
        raise CliError(f"bad image {path}: {err}", EXIT_BAD_INPUT) from err


def _load_image(path: str):
    from .ppm import read_ppm

    return _parse_image(path, read_ppm, _read_bytes(path))


def _attack_report_text(report) -> str:
    lines = [f"status={'success' if report.recovered else 'failure'}"]
    if report.failure_stage is not None:
        lines.append(f"failure_stage={report.failure_stage.value}")
    if report.recovered is not None:
        lines.append(f"k1={report.recovered.k1}")
    if report.map_c is not None:
        lines.append(f"map_c={report.map_c}")
    if report.k1_candidates:
        lines.append(
            "k1_candidates=" + ",".join(str(r) for r in report.k1_candidates)
        )
    if report.k2_class is not None:
        lines.append(f"k2_class=Class{report.k2_class.name}")
    for stage in (1, 2, 3):
        witness = getattr(report, f"step{stage}_witness")
        if witness is not None:
            lines.append(f"step{stage}_witness={witness}")
    return "\n".join(lines) + "\n"


def _cmd_keygen(args) -> int:
    import numpy as np

    from .keystream import random_key

    rng = np.random.default_rng(args.seed)
    key = random_key(rng)
    _write_atomic(args.out, core.format_key_text(key).encode("utf-8"), 0o600)
    return EXIT_OK


def _run_cipher(args, inverse: bool) -> int:
    key = _load_key(args.key)
    kernel = core.native_kernel()
    if kernel is None:
        from .cipher import decrypt, encrypt
        from .ppm import write_ppm

        img = _load_image(args.infile)
        out = write_ppm((decrypt if inverse else encrypt)(img, key))
    else:
        data = _read_bytes(args.infile)
        width, height, offset = _parse_image(args.infile, core.parse_ppm_header, data)
        out = core.cipher_ppm(kernel, key, data, width, height, offset, inverse=inverse)
    _write_atomic(args.out, out)
    return EXIT_OK


def _cmd_encrypt(args) -> int:
    return _run_cipher(args, inverse=False)


def _cmd_decrypt(args) -> int:
    return _run_cipher(args, inverse=True)


def _cmd_attack(args) -> int:
    from .attack import eqkey_to_bytes, recover_equivalent_key

    plain = _load_image(args.plain)
    cipher = _load_image(args.cipher)
    report = recover_equivalent_key(plain, cipher)
    text = _attack_report_text(report)
    if args.report:
        _write_atomic(args.report, text.encode("utf-8"))
    if report.recovered is None:
        sys.stderr.write(text)
        return EXIT_NO_WITNESS
    _write_atomic(args.out, eqkey_to_bytes(report.recovered), 0o600)
    return EXIT_OK


def _cmd_eqdecrypt(args) -> int:
    from .attack import eqkey_from_bytes, equivalent_decrypt
    from .ppm import write_ppm

    try:
        ek = eqkey_from_bytes(_read_bytes(args.eqkey))
    except ValueError as err:
        raise CliError(f"bad equivalent-key file {args.eqkey}: {err}", EXIT_BAD_INPUT) from err
    img = _load_image(args.infile)
    _write_atomic(args.out, write_ppm(equivalent_decrypt(img, ek)))
    return EXIT_OK


def _cmd_avalanche(args) -> int:
    from .analysis import format_avalanche_report, measure_avalanche

    key = _load_key(args.key)
    img = _load_image(args.infile)
    if args.trials < 1:
        raise CliError("--trials must be positive", EXIT_BAD_INPUT)
    report = measure_avalanche(img, key, args.trials, seed=args.seed)
    _write_atomic(args.report, format_avalanche_report(report).encode("utf-8"))
    return EXIT_OK


def _cmd_keyleak(args) -> int:
    from .analysis import format_key_leak_report, measure_wrong_key_leak
    from .cipher import encrypt

    true_key = _load_key(args.truekey)
    wrong_key = _load_key(args.wrongkey)
    plain = _load_image(args.plain)
    cipher = encrypt(plain, true_key)
    report = measure_wrong_key_leak(cipher, plain, wrong_key)
    _write_atomic(args.report, format_key_leak_report(report).encode("utf-8"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dnacipher", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="write a random secret key file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a PPM image")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a PPM image")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser(
        "attack", help="recover an equivalent key from one plain/cipher pair"
    )
    p.add_argument("--plain", required=True)
    p.add_argument("--cipher", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("eqdecrypt", help="decrypt with a recovered equivalent key")
    p.add_argument("--eqkey", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eqdecrypt)

    p = sub.add_parser("avalanche", help="single-bit-flip sensitivity report")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_avalanche)

    p = sub.add_parser("keyleak", help="wrong-key decryption leak report")
    p.add_argument("--truekey", required=True)
    p.add_argument("--wrongkey", required=True)
    p.add_argument("--plain", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_keyleak)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as err:
        sys.stderr.write(f"dnacipher: {err}\n")
        return err.code
    except (ValueError, KeystreamDegenerationError) as err:
        sys.stderr.write(f"dnacipher: {err}\n")
        return EXIT_BAD_INPUT
    except OSError as err:
        sys.stderr.write(f"dnacipher: {err}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
