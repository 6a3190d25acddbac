"""Content-addressed, crash-safe on-disk result cache.

A cache entry is keyed by the experiment id plus a *source
fingerprint*: the SHA-256 over the source text of every ``repro.*``
module the experiment's runner transitively imports (discovered
statically from the import statements in each module, so function-local
imports count too).  Editing any module in that closure -- and only in
that closure -- changes the fingerprint and invalidates the entry, so
unchanged experiments return instantly while touched ones re-run.

Layout under the cache root::

    <cache_dir>/objects/<experiment_id>--<fingerprint[:24]>.rpc
    <cache_dir>/objects/<...>.rpc.claim    (in-flight computation leases)
    <cache_dir>/quarantine/                (corrupt entries, kept for autopsy)
    <cache_dir>/journal.jsonl              (written by the scheduler)

Crash safety:

* every entry is written **atomically** (unique temp file in the same
  directory, then ``os.replace``), so readers never observe a torn
  entry under normal operation;
* every entry is **checksummed**: the ``.rpc`` container is a magic
  header + SHA-256 digest + pickled payload.  A torn write, bit rot,
  or a foreign file is detected on read and the entry is
  **quarantined** (moved to ``quarantine/``) -- a corrupt entry becomes
  a cache miss, never a wrong result;
* directory creation is race-safe (concurrent ``--jobs`` sweeps on a
  cold cache), and unreadable or foreign files in the cache dir are
  ignored rather than fatal.

Results are pickled so they round-trip exactly (numpy scalars,
tuples); an unpicklable result is simply not cached.

Claims (cross-process dedup):

When several processes -- concurrent CLI sweeps, or service jobs from
different clients -- miss on the same ``(experiment, fingerprint)``
key, only one should compute it.  A **claim** is an advisory lease on
an in-flight entry: a ``<entry>.rpc.claim`` file holding the
claimant's pid/host/timestamp, hard-linked into place from a temp file
that already holds that body (``link`` fails if the name exists, so
exactly one claimant wins, and no reader ever sees a claim without its
body).  The scheduler acquires the claim
before launching a runner and releases it after the store; a process
that loses the claim race polls for the stored result instead of
recomputing.  Claims are *advisory* and crash-tolerant: a claim whose
process died (same host) or whose age exceeds the TTL is **stale** and
may be broken by any waiter, so a crashed claimant can never wedge the
key -- the worst outcome is the duplicate computation we started with.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import inspect
import itertools
import json
import os
import pickle
import socket
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.errors import ReproError
from repro.obs import SIZE_BUCKETS, add_counter, observe, span, wall_now

CACHE_SCHEMA_VERSION = "2"

#: Leading bytes of every valid cache entry file.
ENTRY_MAGIC = b"RPROC2\n"

#: Suffix appended to an entry path to form its claim (lease) file.
CLAIM_SUFFIX = ".claim"

#: Age past which a claim is considered abandoned by any waiter, read
#: at call time.  Two minutes matches the default per-experiment
#: timeout: a healthy claimant either stores or releases well within
#: it.
CLAIM_TTL_S = 120.0

_DIGEST_BYTES = 32

_PACKAGE_PREFIX = "repro"

_tmp_counter = itertools.count()


def _is_repro_module(name: str) -> bool:
    return name == _PACKAGE_PREFIX or name.startswith(_PACKAGE_PREFIX + ".")


def _imported_names(source: str, package: str | None) -> set[str]:
    """Module names imported anywhere in ``source`` (repro.* only).

    ``from repro.pdn import grid`` may name either an attribute or a
    submodule, so both ``repro.pdn`` and ``repro.pdn.grid`` are
    returned; non-module candidates are dropped during resolution.
    """
    names: set[str] = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level and package:
                parts = package.split(".")
                if node.level - 1 <= len(parts):
                    base = parts[:len(parts) - (node.level - 1)]
                    module = ".".join(
                        base + ([node.module] if node.module else []))
                else:
                    continue
            elif node.level:
                continue
            else:
                module = node.module or ""
            if module:
                names.add(module)
                for alias in node.names:
                    names.add(f"{module}.{alias.name}")
    return {name for name in names if _is_repro_module(name)}


def _find_source(module_name: str) -> Path | None:
    try:
        spec = importlib.util.find_spec(module_name)
    except (ImportError, AttributeError, ValueError):
        return None
    if spec is None or spec.origin is None:
        return None
    path = Path(spec.origin)
    return path if path.suffix == ".py" and path.exists() else None


# (path, mtime_ns, size) -> (digest, resolved repro imports as
# (source path, package) pairs)
_FILE_STATE_CACHE: dict[tuple[str, int, int], tuple[str, tuple]] = {}


def _file_state(path: Path, package: str | None) -> tuple[str, tuple]:
    """Digest and resolved ``repro.*`` imports of one file version.

    Cached per (path, mtime, size): the ``stat`` runs on every call, so
    an edited file is re-read, but an unchanged one skips the source
    hash and the ``find_spec`` resolution of its imports.
    """
    stat = path.stat()
    key = (str(path), stat.st_mtime_ns, stat.st_size)
    cached = _FILE_STATE_CACHE.get(key)
    if cached is not None:
        return cached
    source = path.read_text(encoding="utf-8")
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    try:
        imports = _imported_names(source, package)
    except SyntaxError:
        imports = set()
    targets = []
    for name in sorted(imports):
        target = _find_source(name)
        if target is not None:
            target = target.resolve()
            targets.append((target, _package_of(name, target)))
    state = (digest, tuple(targets))
    _FILE_STATE_CACHE[key] = state
    return state


def _package_of(module_name: str | None, path: Path | None) -> str | None:
    if module_name is None:
        return None
    if path is not None and path.name == "__init__.py":
        return module_name
    return module_name.rpartition(".")[0] or None


def runner_fingerprint(experiment_id: str,
                       runner: Callable[[], Any]) -> str:
    """Fingerprint of ``runner``'s transitive repro source closure.

    Starts from the file defining the runner (which may live outside
    the package, e.g. a test module), walks ``repro.*`` imports
    breadth-first, and hashes every reachable module's source together
    with the experiment id.  Runners with no retrievable source (C
    builtins, REPL lambdas) fall back to hashing whatever identity
    ``inspect`` can provide, which disables sharing but stays safe.
    """
    with span("cache.fingerprint", experiment=experiment_id):
        return _runner_fingerprint(experiment_id, runner)


def _runner_fingerprint(experiment_id: str,
                        runner: Callable[[], Any]) -> str:
    hasher = hashlib.sha256()
    hasher.update(f"schema:{CACHE_SCHEMA_VERSION}\n".encode())
    hasher.update(f"experiment:{experiment_id}\n".encode())

    module_name = getattr(runner, "__module__", None)
    try:
        start_path = Path(inspect.getsourcefile(runner) or "")
    except TypeError:
        start_path = Path("")

    if not (start_path.name and start_path.exists()):
        code = getattr(runner, "__code__", None)
        token = code.co_code if code is not None else repr(runner).encode()
        hasher.update(b"opaque-runner:")
        hasher.update(token if isinstance(token, bytes) else token.encode())
        return hasher.hexdigest()

    seen_paths: set[Path] = set()
    entries: list[str] = []
    queue: list[tuple[Path, str | None]] = [
        (start_path.resolve(), _package_of(module_name, start_path))]
    while queue:
        path, package = queue.pop()
        if path in seen_paths:
            continue
        seen_paths.add(path)
        try:
            digest, targets = _file_state(path, package)
        except FileNotFoundError:
            continue  # a cached import target deleted since: unresolvable
        entries.append(f"{path.name}:{digest}")
        for target in targets:
            if target[0] not in seen_paths:
                queue.append(target)
    for entry in sorted(entries):
        hasher.update(entry.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def ensure_dir(path: Path) -> Path:
    """Race-safe ``mkdir -p``: concurrent creators all succeed.

    ``Path.mkdir(parents=True, exist_ok=True)`` already tolerates the
    create/create race; what it does not tolerate is a non-directory
    squatting on the path, which we surface as a :class:`ReproError`
    instead of a bare ``OSError`` from deep inside a sweep.
    """
    try:
        path.mkdir(parents=True, exist_ok=True)
    except FileExistsError as exc:
        raise ReproError(
            f"cache path {path} exists but is not a directory") from exc
    except NotADirectoryError as exc:
        raise ReproError(
            f"a parent of cache path {path} is a regular file") from exc
    return path


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/store/quarantine counters for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    quarantined: int = 0
    claims: int = 0
    claim_waits: int = 0
    claims_broken: int = 0


@dataclass(frozen=True)
class ClaimInfo:
    """Who holds (or held) an in-flight entry's lease."""

    pid: int
    host: str
    created_at: float  # wall_now() unix-scale stamp

    def age_s(self, now: float | None = None) -> float:
        return max(0.0, (wall_now() if now is None else now)
                   - self.created_at)

    def holder_alive(self) -> bool | None:
        """Liveness of the claiming process.

        ``True``/``False`` when the claim was taken on this host (pid
        probe-able with ``os.kill(pid, 0)``), ``None`` when it came
        from another machine and only the TTL can judge it.
        """
        if self.host != socket.gethostname():
            return None
        if self.pid <= 0:
            return False
        try:
            os.kill(self.pid, 0)
        except ProcessLookupError:
            return False
        except (OSError, PermissionError):
            return True  # exists, just not ours to signal
        return True


class ResultCache:
    """Checksummed result store addressed by (experiment id, fingerprint)."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._quarantined = 0
        self._claims = 0
        self._claim_waits = 0
        self._claims_broken = 0

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def path_for(self, experiment_id: str, fingerprint: str) -> Path:
        return self.objects_dir / f"{experiment_id}--{fingerprint[:24]}.rpc"

    # -- entry encoding -----------------------------------------------

    @staticmethod
    def encode_entry(entry: dict) -> bytes:
        """Serialise an entry dict into the checksummed container."""
        payload = pickle.dumps(entry)
        digest = hashlib.sha256(payload).digest()
        return ENTRY_MAGIC + digest + payload

    @staticmethod
    def decode_entry(blob: bytes) -> dict:
        """Verify and deserialise a container; raises ``ValueError``."""
        if not blob.startswith(ENTRY_MAGIC):
            raise ValueError("bad magic: not a cache entry")
        body = blob[len(ENTRY_MAGIC):]
        if len(body) < _DIGEST_BYTES:
            raise ValueError("truncated entry header")
        digest, payload = body[:_DIGEST_BYTES], body[_DIGEST_BYTES:]
        if hashlib.sha256(payload).digest() != digest:
            raise ValueError("checksum mismatch (torn or corrupt write)")
        entry = pickle.loads(payload)
        if not isinstance(entry, dict):
            raise ValueError("entry payload is not a dict")
        return entry

    # -- quarantine ---------------------------------------------------

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside; never raises."""
        target = (self.quarantine_dir
                  / f"{path.name}.{os.getpid()}.{next(_tmp_counter)}")
        with span("cache.quarantine", entry=path.name):
            try:
                ensure_dir(self.quarantine_dir)
                os.replace(path, target)
            except (OSError, ReproError):
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    return
        self._quarantined += 1
        add_counter("cache.quarantined")

    # -- public API ---------------------------------------------------

    def get(self, experiment_id: str,
            fingerprint: str) -> tuple[bool, Any]:
        """Return ``(hit, result)``.

        A missing entry is a miss; an unreadable entry is a miss; a
        corrupt (torn, bit-rotted, foreign, or wrong-fingerprint) entry
        is quarantined and reported as a miss.  No code path returns a
        result that failed its checksum.
        """
        path = self.path_for(experiment_id, fingerprint)
        with span("cache.read", experiment=experiment_id) as read_span:
            try:
                blob = path.read_bytes()
            except FileNotFoundError:
                self._misses += 1
                add_counter("cache.misses")
                return False, None
            except OSError:
                # unreadable (permissions, I/O error): ignore, don't crash
                self._misses += 1
                add_counter("cache.misses")
                return False, None
            try:
                entry = self.decode_entry(blob)
                if entry.get("fingerprint") != fingerprint:
                    raise ValueError("fingerprint mismatch")
            except Exception:
                self._quarantine(path)
                self._misses += 1
                add_counter("cache.misses")
                return False, None
            read_span.set(hit=True, bytes=len(blob))
            observe("cache.entry_bytes", len(blob), SIZE_BUCKETS,
                    op="read")
        try:
            # Touch-on-read keeps mtime ~= last access, which is what
            # the shared store's LRU eviction orders entries by.
            os.utime(path)
        except OSError:
            pass
        self._hits += 1
        add_counter("cache.hits")
        return True, entry["result"]

    def put(self, experiment_id: str, fingerprint: str,
            result: Any) -> bool:
        """Store atomically (write-then-rename); False if not storable."""
        path = self.path_for(experiment_id, fingerprint)
        entry = {
            "experiment_id": experiment_id,
            "fingerprint": fingerprint,
            "created_at": wall_now(),
            "result": result,
        }
        with span("cache.write", experiment=experiment_id) as write_span:
            try:
                blob = self.encode_entry(entry)
            except Exception:
                return False
            tmp = path.parent / (f".tmp-{experiment_id}-{os.getpid()}"
                                 f"-{next(_tmp_counter)}")
            try:
                ensure_dir(path.parent)
                tmp.write_bytes(blob)
                os.replace(tmp, path)
            except OSError:
                try:
                    tmp.unlink(missing_ok=True)
                except OSError:
                    pass
                return False
            write_span.set(bytes=len(blob))
            observe("cache.entry_bytes", len(blob), SIZE_BUCKETS,
                    op="write")
        self._stores += 1
        add_counter("cache.stores")
        return True

    # -- claims (in-flight entry leases) ------------------------------

    def claim_path(self, experiment_id: str, fingerprint: str) -> Path:
        return Path(str(self.path_for(experiment_id, fingerprint))
                    + CLAIM_SUFFIX)

    def claim(self, experiment_id: str, fingerprint: str) -> bool:
        """Try to lease the in-flight entry; True if this process won.

        The body is written to a unique temp file first and then
        hard-linked to the claim path, so the claim appears with its
        content and exactly one of any number of simultaneous
        claimants succeeds (the others' links raise
        ``FileExistsError``).  Failure for any other reason (read-only
        cache, I/O error, no hard links) is reported as an acquired
        claim: claims are an optimisation, and a cache that cannot
        hold leases must never block computation.
        """
        path = self.claim_path(experiment_id, fingerprint)
        body = json.dumps({
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "created_at": wall_now(),
        }).encode("utf-8")
        tmp = path.parent / (f".tmp-{experiment_id}-{os.getpid()}"
                             f"-{next(_tmp_counter)}")
        try:
            ensure_dir(path.parent)
            fd = os.open(tmp, os.O_CREAT | os.O_TRUNC | os.O_WRONLY,
                         0o644)
            try:
                os.write(fd, body)
            finally:
                os.close(fd)
            os.link(tmp, path)
        except FileExistsError:
            return False  # another claimant's link landed first
        except (OSError, ReproError):
            return True
        finally:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
        self._claims += 1
        add_counter("cache.claims")
        return True

    def claim_holder(self, experiment_id: str,
                     fingerprint: str) -> ClaimInfo | None:
        """Parse the current claim; ``None`` when the key is unclaimed.

        A claim file that cannot be parsed (torn write, foreign
        content) reports an ancient zero-stamp holder, which every
        staleness check treats as breakable.
        """
        return self._claim_info_at(
            self.claim_path(experiment_id, fingerprint))

    @staticmethod
    def claim_is_stale(info: ClaimInfo) -> bool:
        """True when a waiter may break this claim and take over."""
        if info.age_s() > CLAIM_TTL_S:
            return True
        return info.holder_alive() is False

    def release_claim(self, experiment_id: str,
                      fingerprint: str) -> None:
        """Drop this process's lease (missing file is fine)."""
        try:
            self.claim_path(experiment_id, fingerprint).unlink()
        except OSError:
            pass

    def break_claim(self, experiment_id: str, fingerprint: str) -> None:
        """Forcibly remove a stale claim so a waiter can take over."""
        try:
            self.claim_path(experiment_id, fingerprint).unlink()
        except OSError:
            return
        self._claims_broken += 1
        add_counter("cache.claims_broken")

    def _claim_info_at(self, path: Path) -> ClaimInfo | None:
        """Parse the claim file at ``path`` (same rules as claim_holder)."""
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            return ClaimInfo(pid=int(payload["pid"]),
                             host=str(payload["host"]),
                             created_at=float(payload["created_at"]))
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            if not path.exists():
                return None
            return ClaimInfo(pid=0, host="", created_at=0.0)

    def sweep_stale_claims(self) -> int:
        """Break every stale claim under the objects dir; returns count.

        Waiters already break a dead-pid claim the moment they contest
        it, but a claim with no active waiter -- a worker SIGKILLed
        mid-compute, a daemon that died with leases held -- would
        otherwise linger until the next contender shows up, shielding
        its entry from store pruning the whole time.  The daemon runs
        this sweep on startup recovery and the store manager before
        pruning.
        """
        if not self.objects_dir.is_dir():
            return 0
        broken = 0
        try:
            claim_paths = list(
                self.objects_dir.glob("*.rpc" + CLAIM_SUFFIX))
        except OSError:
            return 0
        for path in claim_paths:
            info = self._claim_info_at(path)
            if info is None or not self.claim_is_stale(info):
                continue
            try:
                path.unlink()
            except OSError:
                continue
            broken += 1
            self._claims_broken += 1
            add_counter("cache.claims_broken")
        return broken

    def note_claim_wait(self) -> None:
        """Count one task that waited on a foreign claim."""
        self._claim_waits += 1
        add_counter("cache.claim_waits")

    def claim_count(self) -> int:
        """Live claim files under the objects directory."""
        if not self.objects_dir.is_dir():
            return 0
        try:
            return sum(1 for _ in
                       self.objects_dir.glob("*.rpc" + CLAIM_SUFFIX))
        except OSError:
            return 0

    def __len__(self) -> int:
        if not self.objects_dir.is_dir():
            return 0
        try:
            return sum(1 for _ in self.objects_dir.glob("*.rpc"))
        except OSError:
            return 0

    @property
    def stats(self) -> CacheStats:
        return CacheStats(hits=self._hits, misses=self._misses,
                          stores=self._stores,
                          quarantined=self._quarantined,
                          claims=self._claims,
                          claim_waits=self._claim_waits,
                          claims_broken=self._claims_broken)
