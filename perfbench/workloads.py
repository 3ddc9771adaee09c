"""The three workloads, the checks on their outputs, and their metrics.

One client thread drives the program over TCP loopback: one connection to
a ``StorageService`` and one to a ``KeyManagerService``, each behind its own
``FrameServer`` in this process. A run sets up several times and keeps the
last set-up, then repeats identical rounds until the next round would end
more than the run length after set-up began. Every round starts a fresh
storage service on the same inputs, so each round stores exactly the same
bytes and the count metrics repeat exactly for a seed, however many rounds
a run holds.

The program is called as ``reed upload``, ``download`` and ``rekey`` call
it, passing only keying, scheme and policy. Checks run outside the timed
calls, and their key requests go through a separate ``KeySession`` so they
stay out of ``key_requests_per_MB``.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from reed import caont
from reed.chunking import ChunkingParams, chunk_stream, fingerprint
from reed.client import (KEYING_CHUNK, KEYING_SIMILARITY, ClientIdentity,
                         Connection, Recipe, StoreSession, download,
                         register_identity, rekey_file, upload)
from reed.errors import AccessDenied, AuthenticationFailure, IntegrityViolation
from reed.keygen import KeyManagerService, KeySession, ManagerKeyPair, derive_chunk_key
from reed.rekeying import ACTIVE, LAZY, wrapped_policy, wrapped_version
from reed.server import FrameServer, StorageService

import inputs
import spans

MB = 1_000_000  # every MB, MB/s and KB in the output is decimal
MIB = 1 << 20
SETUPS = 7
KEY_SAMPLE = 4

# A read of a re-uploaded path that fails in one of these ways is the known
# re-upload fault: the new recipe is paired with the rekeyed state and stubs.
REUPLOAD_FAULTS = (IntegrityViolation, AuthenticationFailure, AccessDenied)


@dataclass(frozen=True)
class BackupSpec:
    keying: str
    scheme: int
    image_bytes: int
    snapshots: int  # odd, so each snapshot alternates lazy and active rekeys
    edits: int  # inserts, deletes and overwrites between snapshots
    restores: int  # times the newest and the oldest snapshot are restored
    rekeys: int  # at least 80, for forty lazy and forty active per round


@dataclass(frozen=True)
class RevokeSpec:
    files: int  # even: even files are always rekeyed lazily, odd ones actively
    smallest: int
    largest: int
    members: int  # policy size, owner included
    others: int  # users besides the owner
    rekeys: int
    reuploads: int  # paths re-uploaded after the loop, half lazy, half active
    keying: str = KEYING_SIMILARITY  # the program's defaults
    scheme: int = caont.SCHEME_ENHANCED


WORKLOADS = {
    "backup-similarity": BackupSpec(
        keying=KEYING_SIMILARITY, scheme=caont.SCHEME_ENHANCED,
        image_bytes=48 * MIB, snapshots=3, edits=96, restores=1, rekeys=160),
    "backup-chunk-keyed": BackupSpec(
        keying=KEYING_CHUNK, scheme=caont.SCHEME_BASIC,
        image_bytes=2 * MIB, snapshots=3, edits=8, restores=8, rekeys=161),
    "revoke-rekey": RevokeSpec(
        files=32, smallest=16 * 1024, largest=2 * MIB, members=4, others=6,
        rekeys=100, reuploads=4),
}

SMOKE = {
    "backup-similarity": replace(WORKLOADS["backup-similarity"],
                                 image_bytes=2 * MIB, snapshots=3, edits=6, rekeys=6),
    "backup-chunk-keyed": replace(WORKLOADS["backup-chunk-keyed"],
                                  image_bytes=128 * 1024, edits=3, rekeys=6),
    "revoke-rekey": replace(WORKLOADS["revoke-rekey"], files=8,
                            largest=128 * 1024, rekeys=12),
}


def expected_failures(spec) -> int:
    """Failed reads per round: every member reads every re-uploaded path."""
    if isinstance(spec, RevokeSpec):
        return spec.reuploads * spec.members
    return 0


# -- services ------------------------------------------------------------------


class Manager:
    def __init__(self):
        self.keypair = ManagerKeyPair.generate()
        self.server = FrameServer(KeyManagerService(self.keypair)).start()
        self.conn = Connection(*self.server.address)
        self.keys = KeySession(self.conn)

    def close(self) -> None:
        self.conn.close()
        self.server.stop()


class Store:
    def __init__(self, root: str):
        self.root = root
        self.service = StorageService(os.path.join(root, "data"),
                                      os.path.join(root, "keys"))
        self.server = FrameServer(self.service).start()
        self.conn = Connection(*self.server.address)
        self.session = StoreSession(self.conn)

    def container_bytes(self) -> int:
        cdir = os.path.join(self.root, "data", "containers")
        return sum(os.path.getsize(os.path.join(cdir, f)) for f in os.listdir(cdir))

    def close(self) -> None:
        self.conn.close()
        self.server.stop()
        self.service.close()
        shutil.rmtree(self.root)


# -- one run -------------------------------------------------------------------


CPU, WALL = "cpu", "wall"


def _per_clock(empty):
    return field(default_factory=lambda: {CPU: empty(), WALL: empty()})


@dataclass
class RoundLog:
    """One round's work, with the timed calls' durations on both clocks.

    ``cpu`` is the process's CPU time, which the end-to-end timings use:
    on a shared host it leaves out the cycles the hypervisor steals, which
    elapsed time does not. ``wall`` is elapsed time, reported per layer.
    """
    traced: bool
    up_bytes: int = 0
    down_bytes: int = 0
    up_s: dict = _per_clock(float)
    down_s: dict = _per_clock(float)
    lazy_ms: dict = _per_clock(list)
    active_ms: dict = _per_clock(list)
    key_requests: int = 0
    stored: int = 0  # physical + stub bytes at the end of the round
    logical: int = 0
    physical: int = 0

    def busy_s(self) -> float:
        """CPU time inside the round's timed calls."""
        return (self.up_s[CPU] + self.down_s[CPU]
                + (sum(self.lazy_ms[CPU]) + sum(self.active_ms[CPU])) / 1000)


class Run:
    def __init__(self, spec, seed: int, work: str, seconds: float):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.seconds = seconds
        self.started = 0.0  # when set-up began; the run length counts from here
        self.tracer = spans.Tracer()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.faults: Counter = Counter()  # failed operations by exception
        self.rounds: list[RoundLog] = []
        self.log: RoundLog | None = None
        self.setup_s: list[float] = []  # CPU seconds of each set-up
        self.caont_probe: dict = {}  # filled by traced runs

    # checks

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)
            print(f"[perfbench] check failed: {what}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return not self.problems

    # set-up

    def set_up(self, users: list[str]) -> None:
        """Set up SETUPS times; keep the last manager and identities.

        The discarded services are stopped together at the end, since each
        ``FrameServer.stop`` waits out the server loop's poll interval.
        """
        self.started = time.perf_counter()
        discard = []
        for i in range(SETUPS):
            start = time.process_time()
            manager = Manager()
            store = Store(os.path.join(self.work, f"setup-{i}"))
            ids = {u: ClientIdentity.create(u) for u in users}
            for identity in ids.values():
                register_identity(store.session, identity)
            self.setup_s.append(time.process_time() - start)
            discard += [manager, store]
        discard.remove(manager)
        with ThreadPoolExecutor(max_workers=len(discard)) as pool:
            list(pool.map(lambda service: service.close(), discard))
        self.manager = manager
        self.ids = ids
        self.check_keys = KeySession(manager.conn)

    def new_store(self, index: int) -> Store:
        store = Store(os.path.join(self.work, f"round-{index}"))
        for identity in self.ids.values():
            register_identity(store.session, identity)
        return store

    # timed operations

    def _op(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        return self.tracer.operation(name, fn, *args, **kwargs)

    def upload(self, store: Store, inp: inputs.InputFile, owner: str,
               policy: list[str]) -> str:
        keys = self.manager.keys
        before = keys.request_count
        fid, wall, cpu = self._op("upload", upload, inp.path, policy=policy,
                                  identity=self.ids[owner], store=store.session,
                                  keys=keys, scheme=self.spec.scheme,
                                  keying=self.spec.keying)
        requests = keys.request_count - before
        self.log.up_bytes += inp.size
        self.log.up_s[WALL] += wall
        self.log.up_s[CPU] += cpu
        self.log.key_requests += requests
        recipe = Recipe.decode(store.session.get_recipe(fid))
        expect = (recipe.chunk_count if recipe.keying == KEYING_CHUNK
                  else len({seg for _, _, seg in recipe.entries}))
        self.check(recipe.size == inp.size, f"recipe size {recipe.size} != {inp.size}")
        self.check(requests == expect,
                   f"{requests} key requests for {expect} {recipe.keying} keys")
        return fid

    def download(self, store: Store, fid: str, user: str,
                 inp: inputs.InputFile) -> None:
        data, wall, cpu = self._op("download", download, fid, identity=self.ids[user],
                                   store=store.session)
        self.log.down_bytes += len(data)
        self.log.down_s[WALL] += wall
        self.log.down_s[CPU] += cpu
        self.check(hashlib.sha256(data).hexdigest() == inp.sha256,
                   f"restore of {inp.path} by {user} does not match its digest")

    def denied(self, store: Store, fid: str, user: str) -> None:
        self.attempted += 1
        try:
            self.tracer.operation("denied", download, fid, identity=self.ids[user],
                                  store=store.session)
        except AccessDenied:
            return
        self.check(False, f"revoked {user} could still download")

    def reupload_read(self, store: Store, fid: str, user: str,
                      inp: inputs.InputFile) -> None:
        """A policy member reads a re-uploaded path; the known fault fails it."""
        self.attempted += 1
        try:
            data, _, _ = self.tracer.operation("reupload_read", download, fid,
                                               identity=self.ids[user],
                                               store=store.session)
        except REUPLOAD_FAULTS as exc:
            self.failed += 1
            self.faults[type(exc).__name__] += 1
            return
        self.check(hashlib.sha256(data).hexdigest() == inp.sha256,
                   f"re-uploaded {inp.path} read back wrong by {user}")

    def rekey(self, store: Store, fid: str, owner: str, policy: list[str],
              mode: str) -> None:
        s = store.session
        old_state, _ = s.get_state(fid)
        old_stub, _ = s.get_stub(fid)
        version, wall, cpu = self._op(f"rekey_{mode}", rekey_file, fid,
                                      new_policy=policy, mode=mode,
                                      identity=self.ids[owner], store=s)
        samples = self.log.lazy_ms if mode == LAZY else self.log.active_ms
        samples[WALL].append(wall * 1000)
        samples[CPU].append(cpu * 1000)
        state_v, blob = s.get_state(fid)
        stub_v, _ = s.get_stub(fid)
        self.check(version == old_state + 1 and state_v == version
                   and wrapped_version(blob) == version,
                   f"rekey moved state {old_state} to {state_v}, returned {version}")
        self.check(wrapped_policy(blob) == sorted(set(policy)),
                   f"wrapped policy {wrapped_policy(blob)} != {sorted(set(policy))}")
        want_stub = version if mode == ACTIVE else old_stub
        self.check(stub_v == want_stub,
                   f"{mode} rekey left the stub file at {stub_v}, expected {want_stub}")

    # end of round

    def finish_round(self, store: Store, logical: int) -> None:
        stats = store.session.stats()
        self.check(stats.logical_bytes == logical,
                   f"logical bytes {stats.logical_bytes} != uploaded {logical}")
        self.check(stats.physical_bytes == store.container_bytes(),
                   f"physical bytes {stats.physical_bytes} != containers on disk "
                   f"{store.container_bytes()}")
        self.check_key_sample()
        self.log.logical = stats.logical_bytes
        self.log.physical = stats.physical_bytes
        self.log.stored = stats.physical_bytes + stats.stub_bytes

    def check_key_sample(self) -> None:
        """Manager keys must equal sha256(fp^d mod n) for the benchmark's own key pair."""
        pair = self.manager.keypair
        gen = inputs.rng(self.seed, 9, len(self.rounds))
        fps = [hashlib.sha256(gen.bytes(32)).digest() for _ in range(KEY_SAMPLE)]
        got = self.check_keys.keys_for_fingerprints(fps)
        want = [derive_chunk_key(pow(int.from_bytes(fp, "big"), pair.d, pair.n),
                                 pair.public.width) for fp in fps]
        self.check(got == want, "manager keys differ from sha256(fp^d mod n)")

    # rounds

    def repeat_rounds(self, body, trace: bool) -> None:
        """Run identical rounds; a traced run alternates untraced and traced ones."""
        min_rounds = 2 if trace else 1
        while True:
            index = len(self.rounds)
            traced = trace and index % 2 == 1
            self.log = RoundLog(traced=traced)
            if traced:
                self.tracer.install()
            gc.collect()
            t0 = time.perf_counter()
            try:
                body(index)
            finally:
                if traced:
                    self.tracer.uninstall()
            last = time.perf_counter() - t0
            self.rounds.append(self.log)
            if (len(self.rounds) >= min_rounds
                    and time.perf_counter() + last > self.started + self.seconds):
                break

    # metrics

    def timings(self, clock: str) -> dict:
        """The four timed end-to-end metrics on one clock, over untraced rounds."""
        logs = [r for r in self.rounds if not r.traced]
        return {
            "upload_MBps": (sum(r.up_bytes for r in logs) / MB
                            / sum(r.up_s[clock] for r in logs), "MB/s"),
            "download_MBps": (sum(r.down_bytes for r in logs) / MB
                              / sum(r.down_s[clock] for r in logs), "MB/s"),
            "rekey_lazy_ms_p50": (statistics.median(
                x for r in logs for x in r.lazy_ms[clock]), "ms"),
            "rekey_active_ms_p50": (statistics.median(
                x for r in logs for x in r.active_ms[clock]), "ms"),
        }

    def end_to_end(self) -> dict:
        logs = [r for r in self.rounds if not r.traced]
        up_bytes = sum(r.up_bytes for r in logs)
        first = self.rounds[0]
        self.check(all((r.stored, r.logical, r.key_requests)
                       == (first.stored, first.logical, first.key_requests)
                       for r in self.rounds),
                   "rounds on the same inputs stored different byte counts")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            **self.timings(CPU),
            "key_requests_per_MB": (sum(r.key_requests for r in logs)
                                    / (up_bytes / MB), "req/MB"),
            "stored_per_logical": (first.stored / first.logical, "B/B"),
            "peak_rss_MB": (rss_kb * 1024 / MB, "MB"),
        }


# -- workloads -----------------------------------------------------------------


OWNER = "owner"
SECOND = "second"


def run_backup(run: Run, trace: bool) -> None:
    spec: BackupSpec = run.spec
    inp_dir = os.path.join(run.work, "inputs")
    os.makedirs(inp_dir)
    snaps = [inputs.write_image(os.path.join(inp_dir, "snap-00.img"),
                                spec.image_bytes, run.seed)]
    for k in range(1, spec.snapshots):
        snaps.append(inputs.write_snapshot(
            snaps[-1], os.path.join(inp_dir, f"snap-{k:02d}.img"),
            spec.edits, run.seed, k))
    run.set_up([OWNER, SECOND])
    copy = snaps[len(snaps) // 2]

    def one_round(index: int) -> None:
        store = run.new_store(index)
        s = store.session
        fids = [run.upload(store, snap, OWNER, [OWNER]) for snap in snaps]
        for _ in range(spec.restores):
            for k in (-1, 0):
                run.download(store, fids[k], OWNER, snaps[k])
        physical = s.stats().physical_bytes
        run.upload(store, copy, SECOND, [SECOND])
        after = s.stats().physical_bytes
        run.check(after == physical,
                  f"an identical copy by a second user added {after - physical} bytes")
        for i in range(spec.rekeys):
            run.rekey(store, fids[i % len(fids)], OWNER, [OWNER],
                      LAZY if i % 2 == 0 else ACTIVE)
        run.check(s.stats().physical_bytes == after, "rekeys changed physical bytes")
        run.finish_round(store, sum(x.size for x in snaps) + copy.size)
        store.close()

    run.repeat_rounds(one_round, trace)
    if trace:
        run.caont_probe = caont_probe(snaps[-1].path, spec.scheme)


def run_revoke(run: Run, trace: bool) -> None:
    spec: RevokeSpec = run.spec
    sizes = inputs.size_ladder(spec.files, spec.smallest, spec.largest)
    others = [f"user{i}" for i in range(1, spec.others + 1)]
    inp_dir = os.path.join(run.work, "inputs")
    os.makedirs(inp_dir)

    def original(f: int) -> inputs.InputFile:
        return inputs.write_random(os.path.join(inp_dir, f"file-{f:02d}.bin"),
                                   sizes[f], run.seed, f)

    files = [original(f) for f in range(spec.files)]
    run.set_up([OWNER] + others)

    def one_round(index: int) -> None:
        gen = inputs.rng(run.seed, 5)  # the same draws every round
        store = run.new_store(index)
        s = store.session
        policies = []
        fids = []
        for f in files:
            members = [OWNER] + sorted(gen.choice(others, spec.members - 1,
                                                  replace=False).tolist())
            policies.append(members)
            fids.append(run.upload(store, f, OWNER, members))
        physical = s.stats().physical_bytes

        def swap(members: list[str]) -> tuple[list[str], str]:
            removed = str(gen.choice(members[1:]))
            added = str(gen.choice([u for u in others if u not in members]))
            return sorted(set(members) - {removed} | {added}), removed

        for i in range(spec.rekeys):
            f = i % spec.files
            policy, removed = swap(policies[f])
            run.rekey(store, fids[f], OWNER, policy, LAZY if i % 2 == 0 else ACTIVE)
            stayed = [u for u in policy if u in policies[f]]
            policies[f] = policy
            run.download(store, fids[f], str(gen.choice(stayed)), files[f])
            run.denied(store, fids[f], removed)
        run.check(s.stats().physical_bytes == physical, "rekeys changed physical bytes")

        logical = sum(f.size for f in files)
        for j in range(spec.reuploads):
            f = j  # files 0, 2, ... were only ever rekeyed lazily, 1, 3, ... actively
            new = inputs.write_random(files[f].path, files[f].size + 3 * 8192,
                                      run.seed, 100 + f)
            policy, _ = swap(policies[f])
            run.upload(store, new, OWNER, policy)
            logical += new.size
            for user in policy:
                run.reupload_read(store, fids[f], user, new)
            original(f)
        run.finish_round(store, logical)
        store.close()

    run.repeat_rounds(one_round, trace)
    if trace:
        probe = inputs.write_random(os.path.join(run.work, "probe.bin"),
                                    spec.largest, run.seed, 999)
        run.caont_probe = caont_probe(probe.path, spec.scheme)


def caont_probe(path: str, scheme: int, limit: int = 4 * MIB) -> dict:
    """CAONT over one input's chunks: serial, and on a 2-thread pool as upload runs it."""
    with open(path, "rb") as fh:
        data = fh.read(limit)
    chunks = chunk_stream(data, ChunkingParams())
    work = [(c.data, fingerprint(c)) for c in chunks]

    def one(item):
        return caont.encrypt_chunk(scheme, item[0], item[1])

    start = time.perf_counter()
    for item in work:
        one(item)
    serial = time.perf_counter() - start
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(one, work))
    pooled = time.perf_counter() - start
    return {"caont.serial_MBps": (len(data) / MB / serial, "MB/s"),
            "caont.pool2_MBps": (len(data) / MB / pooled, "MB/s")}


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: str,
                 spec=None) -> Run:
    spec = spec or WORKLOADS[name]
    run = Run(spec, seed, work, seconds)
    if isinstance(spec, BackupSpec):
        run_backup(run, trace)
    else:
        run_revoke(run, trace)
    run.manager.close()
    return run
