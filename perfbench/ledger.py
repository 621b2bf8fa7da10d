"""Host-time instruments of the benchmark: spans, per-layer self time,
the host-speed reference and provenance.

Nothing here is imported by the program. Spans are recorded by the
benchmark around its own calls into each layer (the round's phases)
and, on a traced round, around every step of the client API entry
points the drivers call, tagged with the request id. Per-layer self
time and call counts come from ``cProfile`` over a whole traced round:
each profiled function is charged to the layer whose package under
``repro/`` defines it, and a function outside the program (builtins,
the standard library, numpy) is charged to the layers of its callers.
A layer's self time is therefore its frames' time minus the time of
the frames they call in other layers.
"""

from __future__ import annotations

import functools
import heapq
import inspect
import json
import os
import platform
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: The program's layers: the packages under ``src/repro``.
LAYERS = ("sim", "net", "client", "server", "storage", "workloads", "core",
          "harness")

#: Client API entry points the benchmark's drivers call.
CLIENT_ENTRY_POINTS = ("get", "set", "iget", "iset", "bget", "bset", "wait")

_BENCH_DIR = str(Path(__file__).resolve().parent)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    #: ``<client name>:<request id>`` of a client API step.
    req_id: Optional[str] = None


class Spans:
    """In-memory span list, written out once at the end of a run."""

    def __init__(self):
        self.records: List[Span] = []
        self._open: List[int] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.records.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(len(self.records) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.records[index].end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    @contextmanager
    def wrap_client_api(self, client_cls):
        """Record a span per resumed step of each client API entry
        point (the generator is driven step by step, so a span covers
        host work done inside the call, never the simulated wait)."""
        originals = {name: getattr(client_cls, name) for name in CLIENT_ENTRY_POINTS}
        for name, fn in originals.items():
            setattr(client_cls, name, self._stepped(f"client.{name}", fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(client_cls, name, fn)

    def _stepped(self, name: str, fn):
        if not inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name} is not a generator function")
        spans = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            req = next((a for a in args[1:] if hasattr(a, "req_id")), None)
            gen = fn(*args, **kwargs)
            steps = []
            value, exc = None, None
            while True:
                index = spans._begin(name)
                steps.append(index)
                try:
                    yielded = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    spans._end(index)
                    done = req if req is not None else stop.value
                    rid = f"{args[0].name}:{done.req_id}"
                    for i in steps:
                        spans.records[i].req_id = rid
                    return stop.value
                except BaseException:
                    spans._end(index)
                    raise
                spans._end(index)
                try:
                    value, exc = (yield yielded), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as e:  # delivered into the API call
                    value, exc = None, e

        return traced

    def to_json(self) -> List[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "req_id": s.req_id} for s in self.records]


def layer_of(filename: str) -> Optional[str]:
    """Layer of a source file: the package under ``repro/`` that holds
    it, ``"bench"`` for this benchmark's files, None for code outside
    both (charged to its callers)."""
    if filename.startswith(_BENCH_DIR):
        return "bench"
    parts = Path(filename).parts
    if "repro" in parts:
        i = len(parts) - 1 - parts[::-1].index("repro")
        return parts[i + 1] if len(parts) > i + 2 else "other"
    return None


def layer_split(stats: Dict) -> Dict[str, Dict[str, float]]:
    """Per-layer self seconds and call counts from ``Profile.stats``.

    ``stats`` maps ``(file, line, func)`` to ``(cc, nc, tt, ct,
    callers)``. A program function's self time and calls go to its
    layer; a foreign function's self time is split over its callers'
    layers in proportion to the time each caller spent in it.
    """
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    memo: Dict = {}

    def resolve(func, seen=()) -> Dict[str, float]:
        """Shares of ``func``'s time per layer."""
        if func in memo:
            return memo[func]
        layer = layer_of(func[0])
        if layer is not None:
            shares = {layer: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            total = sum(c[2] for c in callers.values())
            shares = {}
            for caller, c in callers.items():
                if caller in seen or caller == func:
                    continue
                weight = c[2] / total if total else 1.0 / len(callers)
                for name, share in resolve(caller, seen + (func,)).items():
                    shares[name] = shares.get(name, 0.0) + weight * share
        memo[func] = shares
        return shares

    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        own = layer_of(func[0])
        if own in out:
            out[own]["calls"] += nc
        for name, share in resolve(func).items():
            if name in out:
                out[name]["self_s"] += tt * share
    return out


#: Host seconds one :func:`reference_slice` takes at host speed 1.0
#: (about its median on a 2 vCPU Xeon with python 3.11).
REFERENCE_S = 0.004

#: Steps of the reference event loop per slice.
_REFERENCE_STEPS = 2_500

#: Host seconds between the starts of two reference slices.
_REFERENCE_INTERVAL_S = 0.05


def _reference_proc(table: Dict[int, int], x: int):
    while True:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        slot = x & 1023
        table[slot] = table.get(slot, 0) + 1
        yield (x & 255) * 1e-9, [slot]


def reference_slice() -> Tuple[float, float]:
    """Start and end host time of one fixed slice of pure-Python work.

    The work is a miniature of the simulator's hot loop (a heap of
    timed events, generator processes resumed in turn, dict updates,
    small allocations), so it slows down with the host the way the
    program does, and it shares no code with the program.
    """
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    heap = [(0.0, i, _reference_proc(table, i)) for i in range(64)]
    heapq.heapify(heap)
    seq = len(heap)
    for _ in range(_REFERENCE_STEPS):
        when, _, proc = heapq.heappop(heap)
        delay, _payload = next(proc)
        seq += 1
        heapq.heappush(heap, (when + delay, seq, proc))
    return t0, time.perf_counter()


class HostSpeed:
    """Measures the host's speed while other work runs.

    Inside ``with HostSpeed():`` a wall-clock timer interrupts the
    process every 50 ms and runs one :func:`reference_slice`, so the
    slices sample the host in the same moments as the work around them. :meth:`window` turns the slices
    inside a timed span into the host time the work took, less the
    slices, and the host speed over that time.
    """

    def __init__(self):
        #: ``(start, end)`` host times of every slice.
        self.slices: List[Tuple[float, float]] = []
        self._old = None
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, _REFERENCE_INTERVAL_S,
                         _REFERENCE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, _signum, _frame) -> None:
        if self._busy:  # a slice outlasted the interval
            return
        self._busy = True
        try:
            self.slices.append(reference_slice())
        finally:
            self._busy = False

    def window(self, start: float, end: float) -> Tuple[float, float]:
        """``(work seconds, speed)`` of the span from host time
        ``start`` to ``end``: its length less the slices inside it, and
        the mean speed of those slices, a slice's speed being
        :data:`REFERENCE_S` over its length (1.0 on the reference
        host). The slices split the span into equal stretches of work,
        so the work done is its seconds times that mean. A span too
        short to hold a slice takes the speed of every slice so far,
        or 1.0 when there is none."""
        inside = [e - s for s, e in self.slices if start <= s and e <= end]
        ref = inside or [e - s for s, e in self.slices]
        speed = sum(REFERENCE_S / d for d in ref) / len(ref) if ref else 1.0
        return end - start - sum(inside), speed


def provenance(root: Path) -> Dict[str, object]:
    """How a result was produced: machine, interpreter, commit, date."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": _commit(root),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git;
    "unknown" for an exported tree."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            packed = (root / ".git" / "packed-refs").read_text().splitlines()
            return next(line.split()[0] for line in packed
                        if line.endswith(" " + ref[5:]))
        return ref
    except (OSError, StopIteration):
        return "unknown"


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
