"""Command line tools: ``reed`` (client and servers) and ``reed-trace``.

Exit codes: 0 success, 2 access denied, 3 integrity violation, 4 transport
failure, 5 rate limited, 1 anything else.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile

from . import caont, errors, traceharness
from .client import (KEYINGS, ClientIdentity, Connection, StoreSession, download_to,
                     register_identity, rekey_file, upload)
from .config import Config, parse_named, parse_positive_size, parse_size
from .keygen import KeyManagerService, KeySession, ManagerKeyPair
from .server import FrameServer, StorageService

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ACCESS_DENIED = 2
EXIT_INTEGRITY = 3
EXIT_TRANSPORT = 4
EXIT_RATE_LIMITED = 5

# the names upload's scheme and keying take on the command line and in [client]
_UPLOAD_NAMES = {"scheme": caont.SCHEME_IDS, "keying": dict(zip(KEYINGS, KEYINGS))}


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, errors.AccessDenied):
        return EXIT_ACCESS_DENIED
    if isinstance(exc, (errors.IntegrityViolation, errors.AuthenticationFailure,
                        errors.FingerprintMismatch)):
        return EXIT_INTEGRITY
    if isinstance(exc, errors.TransportError):
        return EXIT_TRANSPORT
    if isinstance(exc, errors.RateLimited):
        return EXIT_RATE_LIMITED
    return EXIT_ERROR


def _reported(run, *args) -> int:
    """run(*args), with a failure a user can act on as one error line."""
    try:
        return run(*args)
    except (errors.ReedError, OSError, ValueError) as exc:  # also a bad config or address
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def _upload_options(args, cfg: Config) -> dict:
    """upload's scheme and keying, each from its flag or else from [client];
    one that neither sets is left to upload's default."""
    named = {**cfg.options("client", scheme=str, keying=str),
             **{key: getattr(args, key) for key in _UPLOAD_NAMES if getattr(args, key)}}
    for key, name in named.items():
        if name not in _UPLOAD_NAMES[key]:
            raise ValueError(f"{key} must be one of {', '.join(_UPLOAD_NAMES[key])}, "
                             f"not {name!r}")
    return {key: _UPLOAD_NAMES[key][name] for key, name in named.items()}


def _store_session(cfg: Config):
    """A session to [client] server, to enter with ``with``; a bad address
    is refused here, before anything connects."""
    return _session(StoreSession, cfg.address("client", "server"))


def _key_session(cfg: Config):
    """A session to [client] manager, as _store_session."""
    return _session(KeySession, cfg.address("client", "manager"))


@contextlib.contextmanager
def _session(session_cls, address: tuple[str, int]):
    with Connection(*address) as conn:
        yield session_cls(conn)


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _identity(cfg: Config, create_user: str | None = None) -> ClientIdentity:
    directory = cfg.get("client", "identity_dir")
    if create_user is not None:
        if os.path.exists(os.path.join(directory, "identity.json")):
            identity = ClientIdentity.load(directory)
            if identity.user_id != create_user:
                raise errors.ReedError(
                    f"identity dir already holds keys for {identity.user_id!r}")
            return identity
        identity = ClientIdentity.create(create_user)
        identity.save(directory)
        return identity
    return ClientIdentity.load(directory)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="reed")
    parser.add_argument("--config", help="path to an INI config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen-register", help="create and register an identity")
    p.add_argument("--user", required=True)

    p = sub.add_parser("upload", help="upload a file")
    p.add_argument("path")
    p.add_argument("--policy", required=True, help="comma-separated user ids")
    p.add_argument("--scheme", choices=caont.SCHEME_IDS)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--fixed", action="store_true", help="fixed-size chunking")
    mode.add_argument("--rabin", action="store_true", help="content-defined chunking")
    p.add_argument("--keying", choices=KEYINGS)

    p = sub.add_parser("download", help="download a file by id")
    p.add_argument("file_id")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("rekey", help="advance a file's key state")
    p.add_argument("file_id")
    p.add_argument("--policy", required=True)
    p.add_argument("--mode", choices=["lazy", "active"], default="lazy")

    sub.add_parser("stats", help="print server storage counters")

    sub.add_parser("serve-store", help="run the dedup storage server")
    sub.add_parser("serve-manager", help="run the key manager")

    args = parser.parse_args(argv)
    return _reported(lambda: _run(args, Config.load(args.config)))


def _run(args, cfg: Config) -> int:
    if args.command == "keygen-register":
        session = _store_session(cfg)  # before the identity is made
        identity = _identity(cfg, create_user=args.user)
        with session as store:
            register_identity(store, identity)
        print(f"registered {identity.user_id}")
        return EXIT_OK

    if args.command == "upload":
        # refused here, before connecting
        options = _upload_options(args, cfg)
        chunk_params = cfg.chunk_params("fixed" if args.fixed else
                                        "rabin" if args.rabin else None)
        identity = _identity(cfg)
        sessions = _store_session(cfg), _key_session(cfg)  # both addresses, then connect
        with sessions[0] as store, sessions[1] as keys:
            file_id = upload(
                args.path,
                policy=args.policy.split(","),
                identity=identity,
                store=store,
                keys=keys,
                chunk_params=chunk_params,
                seg_params=cfg.segment_params(chunk_params),
                **options,
            )
        print(file_id)
        return EXIT_OK

    if args.command == "download":
        identity = _identity(cfg)
        target = os.path.abspath(args.output)
        # Written beside the target and renamed over it only once every chunk
        # and the size check pass, so a failed download leaves it untouched.
        fd, part = tempfile.mkstemp(dir=os.path.dirname(target),
                                    prefix=f".{os.path.basename(target)}.", suffix=".part")
        try:
            with os.fdopen(fd, "wb") as fh, _store_session(cfg) as store:
                size = download_to(args.file_id, fh, identity=identity, store=store)
                fh.flush()
                os.fsync(fh.fileno())
            os.chmod(part, 0o666 & ~_umask())
            os.replace(part, target)
        except BaseException:
            os.unlink(part)
            raise
        print(f"wrote {size} bytes to {args.output}")
        return EXIT_OK

    if args.command == "rekey":
        identity = _identity(cfg)
        with _store_session(cfg) as store:
            version = rekey_file(args.file_id, new_policy=args.policy.split(","),
                                 mode=args.mode, identity=identity, store=store)
        print(f"new key state version {version}")
        return EXIT_OK

    if args.command == "stats":
        with _store_session(cfg) as store:
            stats = store.stats()
        print(f"logical_bytes\t{stats.logical_bytes}")
        print(f"physical_bytes\t{stats.physical_bytes}")
        print(f"stub_bytes\t{stats.stub_bytes}")
        print(f"container_count\t{stats.container_count}")
        print(f"index_entries\t{stats.index_entries}")
        print(f"saving\t{stats.saving:.4f}")
        return EXIT_OK

    if args.command == "serve-store":
        host, port = cfg.address("server", "listen")
        options = cfg.options("server", container_size=parse_size)
        service = _in_section("server", lambda: StorageService(
            cfg.get("server", "data_root"), cfg.get("server", "key_root"), **options))
        server = FrameServer(service, host, port).start()
        print(f"storage server on {server.address[0]}:{server.address[1]}")
        _serve_until_interrupt(server, service)
        return EXIT_OK

    if args.command == "serve-manager":
        host, port = cfg.address("manager", "listen")
        keypair = ManagerKeyPair.load_or_create(cfg.get("manager", "key_file"))
        options = cfg.options("manager", rate_capacity=parse_size, rate_refill=float,
                              batch_cap=parse_size)
        service = _in_section("manager", lambda: KeyManagerService(keypair, **options))
        server = FrameServer(service, host, port).start()
        print(f"key manager on {server.address[0]}:{server.address[1]}")
        _serve_until_interrupt(server)
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def _in_section(section: str, make):
    """make(), a service built from the keys of [section]. The service names
    a keyword it refuses, and each keyword is the key of that name, so its
    ValueError is raised again led by [section]."""
    try:
        return make()
    except ValueError as exc:
        raise ValueError(f"[{section}] {exc}") from None


def _serve_until_interrupt(server: FrameServer, service=None) -> None:
    import time
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        if service is not None:
            service.close()


def trace_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="reed-trace")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("replay", help="replay a trace and report savings")
    p.add_argument("trace")
    p.add_argument("--mode", choices=KEYINGS, required=True)
    p.add_argument("--avg-segment", default="1M")
    p.add_argument("--avg-chunk", default="8192")
    p.add_argument("--report", help="write the TSV report here (default stdout)")
    p.add_argument("--drop-zero", action="store_true",
                   help="filter out zero-filled chunks before replay")

    p = sub.add_parser("gen", help="generate a synthetic trace")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--snapshots", type=int, required=True)
    p.add_argument("--chunks", type=int, required=True)
    p.add_argument("--mutate", type=float, required=True)
    p.add_argument("-o", "--output", help="output path (default stdout)")

    return _reported(_run_trace, parser.parse_args(argv))


def _run_trace(args) -> int:
    if args.command == "replay":
        snapshots = traceharness.load_trace(args.trace, args.drop_zero)
        report = traceharness.replay(
            snapshots, args.mode,
            avg_segment_size=parse_named("--avg-segment", parse_positive_size,
                                         args.avg_segment),
            avg_chunk_size=parse_named("--avg-chunk", parse_positive_size, args.avg_chunk))
        with _output(args.report) as fh:
            fh.write(report.to_tsv())
        # on stderr, so that standard output stays one TSV table
        print(f"key_requests\t{report.key_requests}\nkeys_sent\t{report.keys_sent}",
              file=sys.stderr)
        return EXIT_OK
    if args.command == "gen":
        trace = traceharness.generate_trace(args.seed, args.snapshots,
                                            args.chunks, args.mutate)
        with _output(args.output) as fh:
            fh.write(traceharness.format_trace(trace))
        return EXIT_OK
    raise AssertionError(f"unhandled command {args.command}")


def _output(path: str | None):
    """The file at path opened for writing, or standard output without one."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
