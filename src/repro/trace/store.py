"""The trace: append-only numpy columns with lazy event objects.

Recording every kernel/memcpy as a frozen :class:`TraceEvent` dataclass
would make the *application* side of the paper's method the bottleneck:
a traced LAMMPS run emits tens of thousands of events, and every
analysis pass (duration extraction, ``%Runtime`` unions, Table IV
binning) would walk those objects in scalar Python. Traces are
therefore stored as columns:

* :class:`ColumnStore` — preallocated, geometrically grown numpy arrays
  for ``start``/``end``/``stream``/``nbytes``/``correlation_id``/
  ``thread``, plus interned code tables for event kinds, names and copy
  directions. Appending a row is O(1) amortized and costs no object
  allocation beyond the (rare, usually-``None``) meta dict.
* :class:`Trace` — a time-sorted trace whose ground truth is a
  :class:`ColumnStore` (optionally restricted to a row selection).
  Every summary the paper's pipeline needs — durations, sizes,
  busy-time unions, concurrency, per-name groups — is a masked column
  operation; iteration and indexing lazily materialize
  :class:`TraceEvent` objects.

The vectorized summaries replicate the straightforward list-of-events
loops exactly: the same IEEE operations in the same order (running
maxima for interval unions, per-run accumulation, stable sorts). The
parity tests in ``tests/trace/test_store.py`` check them element for
element against the list-backed oracle in ``tests/oracles/trace.py``.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .events import CopyKind, EventKind, TraceEvent

__all__ = [
    "ColumnStore",
    "Trace",
    "COLUMNS",
    "KIND_CODE",
    "COPY_CODE",
    "NO_CODE",
]

#: Fixed kind/copy code tables (enum declaration order).
_KINDS: Tuple[EventKind, ...] = tuple(EventKind)
KIND_CODE: Dict[EventKind, int] = {k: i for i, k in enumerate(_KINDS)}
_COPIES: Tuple[CopyKind, ...] = tuple(CopyKind)
COPY_CODE: Dict[CopyKind, int] = {c: i for i, c in enumerate(_COPIES)}

#: Code standing for "absent" in the stream / copy-kind columns.
NO_CODE = -1

_MEMCPY_CODE = KIND_CODE[EventKind.MEMCPY]

#: The per-row numpy columns of a :class:`ColumnStore`.
COLUMNS = ("start", "end", "stream", "nbytes", "corr", "thread",
            "kind", "name_code", "copy")

#: Bounds of a meta value that may live in an int64 column.
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class ColumnStore:
    """Append-only columnar event storage with interned code tables.

    Rows are stored in record (append) order; sorting is the reader's
    concern. Arrays grow geometrically (doubling), so appends are O(1)
    amortized; ``growths`` counts reallocation events and
    ``nbytes_allocated`` the current (== peak, the store never shrinks)
    column footprint for the ``trace.store.*`` metrics.
    """

    __slots__ = (
        "n",
        "capacity",
        "growths",
        "start",
        "end",
        "stream",
        "nbytes",
        "corr",
        "thread",
        "kind",
        "name_code",
        "copy",
        "metas",
        "_names",
        "_name_codes",
    )

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.n = 0
        self.capacity = capacity
        self.growths = 0
        self.start = np.empty(capacity, dtype=np.float64)
        self.end = np.empty(capacity, dtype=np.float64)
        self.stream = np.empty(capacity, dtype=np.int64)
        self.nbytes = np.empty(capacity, dtype=np.int64)
        self.corr = np.empty(capacity, dtype=np.int64)
        self.thread = np.empty(capacity, dtype=np.int64)
        self.kind = np.empty(capacity, dtype=np.int8)
        self.name_code = np.empty(capacity, dtype=np.int32)
        self.copy = np.empty(capacity, dtype=np.int8)
        #: Per-row meta dict (None for the common empty case).
        self.metas: List[Optional[Dict[str, Any]]] = []
        #: Interned event names: code -> string and string -> code.
        self._names: List[str] = []
        self._name_codes: Dict[str, int] = {}

    # -- writing -----------------------------------------------------------------
    def intern_name(self, name: str) -> int:
        """Code for ``name``, interning it on first sight."""
        code = self._name_codes.get(name)
        if code is None:
            code = len(self._names)
            self._name_codes[name] = code
            self._names.append(name)
        return code

    def name_at(self, code: int) -> str:
        """The interned string behind ``code``."""
        return self._names[code]

    @property
    def names(self) -> Tuple[str, ...]:
        """All interned names, in interning order."""
        return tuple(self._names)

    def _grow(self) -> None:
        new_cap = self.capacity * 2
        for col in COLUMNS:
            old = getattr(self, col)
            grown = np.empty(new_cap, dtype=old.dtype)
            grown[: self.n] = old[: self.n]
            setattr(self, col, grown)
        self.capacity = new_cap
        self.growths += 1

    def append_row(
        self,
        kind_code: int,
        name: str,
        start: float,
        end: float,
        stream: Optional[int],
        nbytes: int,
        copy_code: int,
        correlation_id: int,
        thread: int,
        meta: Optional[Dict[str, Any]],
    ) -> int:
        """Append one event row; returns its row index.

        Validation mirrors :class:`TraceEvent.__post_init__` exactly, so
        recording through columns rejects the same malformed intervals
        the object path would.
        """
        if end < start:
            raise ValueError(
                f"event {name!r} ends ({end}) before it starts ({start})"
            )
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if kind_code == _MEMCPY_CODE and copy_code == NO_CODE:
            raise ValueError("memcpy events need a copy_kind")
        i = self.n
        if i == self.capacity:
            self._grow()
        self.start[i] = start
        self.end[i] = end
        self.stream[i] = NO_CODE if stream is None else stream
        self.nbytes[i] = nbytes
        self.corr[i] = correlation_id
        self.thread[i] = thread
        self.kind[i] = kind_code
        self.name_code[i] = self.intern_name(name)
        self.copy[i] = copy_code
        self.metas.append(meta if meta else None)
        self.n = i + 1
        return i

    def extend_rows(
        self,
        kind_code: int,
        name_codes: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        stream: Optional[np.ndarray] = None,
        nbytes: Optional[np.ndarray] = None,
        copy_code: int = NO_CODE,
        correlation_id: Optional[np.ndarray] = None,
        thread: Optional[np.ndarray] = None,
    ) -> int:
        """Bulk :meth:`append_row`: append ``len(start)`` rows at once.

        All rows share one ``kind_code`` and ``copy_code``;
        ``name_codes`` must be pre-interned (see :meth:`intern_name`).
        Optional columns default to the same sentinels as the scalar
        path. Validation matches :meth:`append_row` and reports the
        first offending row. Returns the index of the first new row.
        """
        start = np.asarray(start, dtype=np.float64)
        end = np.asarray(end, dtype=np.float64)
        m = len(start)
        if len(end) != m or len(np.atleast_1d(name_codes)) not in (1, m):
            raise ValueError("bulk columns must align")
        bad = np.flatnonzero(end < start)
        if len(bad):
            row = int(bad[0])
            codes = np.broadcast_to(np.atleast_1d(name_codes), (m,))
            name = self._names[int(codes[row])]
            raise ValueError(
                f"event {name!r} ends ({end[row]}) before it starts "
                f"({start[row]})"
            )
        if nbytes is not None and len(np.atleast_1d(nbytes)) and int(
            np.min(nbytes)
        ) < 0:
            raise ValueError("nbytes must be non-negative")
        if kind_code == _MEMCPY_CODE and copy_code == NO_CODE:
            raise ValueError("memcpy events need a copy_kind")
        i = self.n
        if i + m > self.capacity:
            while self.capacity < i + m:
                self.capacity *= 2
            for col in COLUMNS:
                old = getattr(self, col)
                grown = np.empty(self.capacity, dtype=old.dtype)
                grown[:i] = old[:i]
                setattr(self, col, grown)
            self.growths += 1
        sl = slice(i, i + m)
        self.start[sl] = start
        self.end[sl] = end
        self.stream[sl] = NO_CODE if stream is None else stream
        self.nbytes[sl] = 0 if nbytes is None else nbytes
        self.corr[sl] = 0 if correlation_id is None else correlation_id
        self.thread[sl] = 0 if thread is None else thread
        self.kind[sl] = kind_code
        self.name_code[sl] = name_codes
        self.copy[sl] = copy_code
        self.metas.extend([None] * m)
        self.n = i + m
        return i

    # -- reading -----------------------------------------------------------------
    def event_at(self, row: int) -> TraceEvent:
        """Materialize one row as a :class:`TraceEvent`."""
        copy_code = int(self.copy[row])
        stream = int(self.stream[row])
        meta = self.metas[row]
        return TraceEvent(
            kind=_KINDS[self.kind[row]],
            name=self._names[self.name_code[row]],
            start=float(self.start[row]),
            end=float(self.end[row]),
            stream=None if stream == NO_CODE else stream,
            nbytes=int(self.nbytes[row]),
            copy_kind=None if copy_code == NO_CODE else _COPIES[copy_code],
            correlation_id=int(self.corr[row]),
            thread=int(self.thread[row]),
            meta=dict(meta) if meta else {},
        )

    @property
    def nbytes_allocated(self) -> int:
        """Bytes currently held by the numpy columns (== peak)."""
        return sum(getattr(self, col).nbytes for col in COLUMNS)

    def stats(self) -> Dict[str, float]:
        """Flat metrics for ``repro.obs`` (``trace.store.*`` section)."""
        return {
            "events": float(self.n),
            "bytes": float(self.nbytes_allocated),
            "growths": float(self.growths),
            "interned_names": float(len(self._names)),
        }

    # -- persistence (profile cache) ------------------------------------------------
    def to_doc(self) -> Dict[str, Any]:
        """JSON-ready columnar document (append order, exact floats)."""
        n = self.n
        return {
            "kind": self.kind[:n].tolist(),
            "name_code": self.name_code[:n].tolist(),
            "start": self.start[:n].tolist(),
            "end": self.end[:n].tolist(),
            "stream": self.stream[:n].tolist(),
            "nbytes": self.nbytes[:n].tolist(),
            "copy": self.copy[:n].tolist(),
            "corr": self.corr[:n].tolist(),
            "thread": self.thread[:n].tolist(),
            "names": list(self._names),
            "metas": [
                [i, meta] for i, meta in enumerate(self.metas) if meta
            ],
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "ColumnStore":
        """Rebuild a store from :meth:`to_doc` output (bit-exact)."""
        metas = doc.get("metas", [])
        return cls._assemble(
            doc,
            doc["names"],
            [int(row) for row, _ in metas],
            [dict(meta) for _, meta in metas],
        )

    def to_arrays(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """Binary twin of :meth:`to_doc`: numpy arrays plus a JSON header.

        The arrays hold the nine columns (append order) and the metas as
        columns: ``meta_rows`` lists the rows with a non-empty meta,
        ``meta_pattern`` codes each such row's key sequence (one entry
        of the header's ``meta_patterns`` per distinct sequence, so key
        order survives), and ``meta_<i>`` holds the values of key ``i``
        of ``meta_keys`` over the rows carrying it, in row order, when
        they are all ``int`` (int64) or all ``float`` (float64). Any
        other key keeps its values as a JSON list at position ``i`` of
        the header's ``meta_json`` (``None`` marks an array key).
        :meth:`from_arrays` restores every value with its exact type.
        """
        n = self.n
        arrays = {col: getattr(self, col)[:n] for col in COLUMNS}
        patterns: Dict[Tuple[str, ...], int] = {}
        rows: List[int] = []
        codes: List[int] = []
        values: Dict[str, List[Any]] = {}
        for row, meta in enumerate(self.metas):
            if meta:
                rows.append(row)
                codes.append(patterns.setdefault(tuple(meta), len(patterns)))
                for key, value in meta.items():
                    values.setdefault(key, []).append(value)
        arrays["meta_rows"] = np.array(rows, dtype=np.int64)
        arrays["meta_pattern"] = np.array(codes, dtype=np.int32)
        meta_json: List[Optional[List[Any]]] = []
        for i, column in enumerate(values.values()):
            packed = _numeric_column(column)
            if packed is None:
                meta_json.append(column)
            else:
                arrays[f"meta_{i}"] = packed
                meta_json.append(None)
        header = {
            "names": list(self._names),
            "meta_patterns": [list(p) for p in patterns],
            "meta_keys": list(values),
            "meta_json": meta_json,
        }
        return arrays, header

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], header: Dict[str, Any]
    ) -> "ColumnStore":
        """Rebuild a store from :meth:`to_arrays` output (bit-exact).

        Every part must be present and line up — a missing array or
        header key, a column of the wrong length or a meta column that
        does not match its rows raises ``KeyError``/``ValueError``, so
        a damaged entry never decodes to a different store.
        """
        keys = header["meta_keys"]
        columns = [
            arrays[f"meta_{i}"] if stored is None else stored
            for i, stored in enumerate(header["meta_json"])
        ]
        if len(columns) != len(keys):
            raise ValueError("meta keys and meta columns disagree")
        position = {key: i for i, key in enumerate(keys)}
        patterns = [
            [position[key] for key in p] for p in header["meta_patterns"]
        ]
        rows = arrays["meta_rows"]
        codes = arrays["meta_pattern"]
        if rows.shape != codes.shape:
            raise ValueError("meta rows and meta patterns disagree")
        # A key's column runs over the meta rows whose pattern carries
        # the key, so a row's slot in it is the running count of them.
        carries = np.zeros((len(keys), len(patterns)), dtype=bool)
        for p, members in enumerate(patterns):
            carries[members, p] = True
        slots = []
        for i, column in enumerate(columns):
            has = carries[i][codes]
            if int(has.sum()) != len(column):
                raise ValueError(
                    f"meta column {keys[i]!r} does not match its rows"
                )
            slots.append(np.cumsum(has) - 1)
        # Decode pattern by pattern; ``order`` holds the rows of ``metas``.
        order: List[np.ndarray] = []
        metas: List[Dict[str, Any]] = []
        for p, members in enumerate(patterns):
            where = np.flatnonzero(codes == p)
            order.append(rows[where])
            values = [_take(columns[i], slots[i][where]) for i in members]
            if len(members) == 1:  # the common case, without zip per row
                key = keys[members[0]]
                metas.extend([{key: v} for v in values[0]])
            else:
                pattern_keys = [keys[i] for i in members]
                metas.extend(dict(zip(pattern_keys, v)) for v in zip(*values))
        return cls._assemble(
            arrays,
            header["names"],
            np.concatenate(order) if order else rows,
            metas,
        )

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, Any],
        names: Sequence[str],
        metas: List[Optional[Dict[str, Any]]],
    ) -> "ColumnStore":
        """A store holding ``columns`` (one per :data:`COLUMNS` entry,
        rows in record order), the interned ``names`` and one meta (or
        ``None``) per row.

        For writers that produce whole columns at once; the result
        equals recording the same rows one by one with
        :meth:`append_row`, capacity and growth count included.
        """
        n = len(metas)
        capacity, growths = 256, 0
        while capacity < n:
            capacity *= 2
            growths += 1
        store = cls(capacity=capacity)
        for col in COLUMNS:
            values = np.asarray(columns[col])
            if values.shape != (n,):
                raise ValueError(f"column {col!r} does not hold {n} rows")
            getattr(store, col)[:n] = values
        store.n = n
        store.growths = growths
        store._names = list(names)
        store._name_codes = {s: i for i, s in enumerate(store._names)}
        store.metas = list(metas)
        return store

    @classmethod
    def _assemble(
        cls,
        columns: Mapping[str, Any],
        names: Sequence[str],
        meta_rows: Sequence[int],
        metas: List[Dict[str, Any]],
    ) -> "ColumnStore":
        """The one rebuild path: columns, interned names, row metas."""
        n = len(columns["start"])
        store = cls(capacity=max(1, n))
        store.n = n
        for col in COLUMNS:
            dest = getattr(store, col)
            values = np.asarray(columns[col], dtype=dest.dtype)
            if values.shape != (n,):
                raise ValueError(f"column {col!r} does not hold {n} rows")
            dest[:n] = values
        store._names = [str(s) for s in names]
        store._name_codes = {s: i for i, s in enumerate(store._names)}
        placed = np.full(n, None, dtype=object)
        placed[np.asarray(meta_rows, dtype=np.intp)] = metas
        store.metas = placed.tolist()
        return store


def _take(
    column: Union[np.ndarray, List[Any]], index: np.ndarray
) -> List[Any]:
    """``column[index]`` as Python values (array or JSON list column)."""
    if isinstance(column, np.ndarray):
        return column[index].tolist()
    return [column[j] for j in index.tolist()]


def _numeric_column(values: List[Any]) -> Optional[np.ndarray]:
    """``values`` as an exact int64/float64 array, or None if they are not
    all ``int`` within int64 or all ``float`` (bool, str, None, ... fall
    back to JSON)."""
    kinds = {type(v) for v in values}
    if kinds == {float}:
        return np.array(values, dtype=np.float64)
    if kinds == {int} and (
        _INT64_MIN <= min(values) and max(values) <= _INT64_MAX
    ):
        return np.array(values, dtype=np.int64)
    return None


class Trace:
    """A time-sorted sequence of :class:`TraceEvent` held as columns.

    The root trace of a :class:`~repro.trace.tracer.Tracer` owns the
    whole store; filtered views (``kernels()``, ``memcpys()``,
    ``of_kinds()``, ``by_name()`` groups) share the parent's columns
    through a fixed row-selection array, so no event data is ever
    copied. Analysis methods are vectorized; iteration and indexing
    lazily materialize the sorted :class:`TraceEvent` sequence (cached
    until more rows are appended). All durations are simulated
    seconds, sizes are bytes.
    """

    def __init__(
        self,
        events: Optional[Iterable[TraceEvent]] = None,
        name: str = "",
        *,
        store: Optional[ColumnStore] = None,
        selection: Optional[np.ndarray] = None,
    ) -> None:
        self.name = name
        self._store = store if store is not None else ColumnStore()
        #: Fixed row selection for views; None = all (live) store rows.
        self._selection = selection
        self._perm: Optional[np.ndarray] = None
        self._perm_rows = -1
        self._events: List[TraceEvent] = []
        self._events_rows = -1
        if events:
            for e in events:
                self.append(e)

    # -- recording ----------------------------------------------------------------
    @property
    def store(self) -> ColumnStore:
        """The backing column store (shared across views)."""
        return self._store

    def record_fast(
        self,
        kind: EventKind,
        name: str,
        start: float,
        end: float,
        stream: Optional[int] = None,
        nbytes: int = 0,
        copy_kind: Optional[CopyKind] = None,
        correlation_id: int = 0,
        thread: int = 0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append a row without constructing a :class:`TraceEvent`."""
        if self._selection is not None:
            raise TypeError("cannot record into a filtered trace view")
        self._store.append_row(
            KIND_CODE[kind],
            name,
            start,
            end,
            stream,
            nbytes,
            NO_CODE if copy_kind is None else COPY_CODE[copy_kind],
            correlation_id,
            thread,
            meta,
        )

    def record_batch(
        self,
        kind: EventKind,
        names: Union[str, Sequence[str]],
        start: np.ndarray,
        end: np.ndarray,
        stream: Optional[np.ndarray] = None,
        nbytes: Optional[np.ndarray] = None,
        copy_kind: Optional[CopyKind] = None,
        correlation_id: Optional[np.ndarray] = None,
        thread: Optional[np.ndarray] = None,
    ) -> None:
        """Vectorized :meth:`record_fast`: one call, many rows.

        ``names`` is a single shared name or a per-row sequence;
        everything else broadcasts like numpy. This is the fleet
        engine's recording path — a million job events land as slice
        assignments instead of a million Python-level appends.
        """
        if self._selection is not None:
            raise TypeError("cannot record into a filtered trace view")
        if isinstance(names, str):
            codes: Any = self._store.intern_name(names)
        else:
            codes = np.fromiter(
                (self._store.intern_name(s) for s in names),
                dtype=np.int32,
                count=len(names),
            )
        self._store.extend_rows(
            KIND_CODE[kind],
            codes,
            start,
            end,
            stream=stream,
            nbytes=nbytes,
            copy_code=NO_CODE if copy_kind is None else COPY_CODE[copy_kind],
            correlation_id=correlation_id,
            thread=thread,
        )

    def append(self, event: TraceEvent) -> None:
        """Add an event (encoded into columns)."""
        self.record_fast(
            event.kind,
            event.name,
            event.start,
            event.end,
            stream=event.stream,
            nbytes=event.nbytes,
            copy_kind=event.copy_kind,
            correlation_id=event.correlation_id,
            thread=event.thread,
            meta=event.meta,
        )

    # -- row plumbing -------------------------------------------------------------
    def _rows(self) -> np.ndarray:
        """Selected row indices in append order."""
        if self._selection is not None:
            return self._selection
        return np.arange(self._store.n)

    def _row_count(self) -> int:
        if self._selection is not None:
            return int(self._selection.size)
        return self._store.n

    def _sorted_rows(self) -> np.ndarray:
        """Row indices in (start, end)-sorted order (stable).

        ``np.lexsort`` is stable, so equal-key rows keep append order —
        exactly the permutation Python's stable ``list.sort`` with key
        ``(start, end)`` produces on the materialized events.
        """
        count = self._row_count()
        if self._perm is not None and self._perm_rows == count:
            return self._perm
        rows = self._rows()
        store = self._store
        order = np.lexsort((store.end[rows], store.start[rows]))
        self._perm = rows[order]
        self._perm_rows = count
        return self._perm

    def _view(self, selection: np.ndarray, name: Optional[str] = None) -> "Trace":
        return Trace(
            name=self.name if name is None else name,
            store=self._store,
            selection=selection,
        )

    # -- event materialization ---------------------------------------------------
    def _sorted_events(self) -> List[TraceEvent]:
        """The events in iteration order, built once per row count."""
        count = self._row_count()
        if self._events_rows != count:
            store = self._store
            self._events = [store.event_at(i) for i in self._sorted_rows()]
            self._events_rows = count
        return self._events

    def time_ordered(self) -> "Trace":
        """A root copy of this trace in iteration order.

        Rows come in (start, end)-sorted order and names are interned
        in order of first appearance in it, so the copy equals
        recording ``list(self)`` into a fresh trace, whatever order the
        rows were recorded in.
        """
        store = self._store
        perm = self._sorted_rows()
        codes = store.name_code[perm]
        used, first = np.unique(codes, return_index=True)
        used = used[np.argsort(first, kind="stable")]
        remap = np.zeros(len(store._names), dtype=codes.dtype)
        remap[used] = np.arange(len(used), dtype=codes.dtype)
        columns = {col: getattr(store, col)[perm] for col in COLUMNS}
        columns["name_code"] = remap[codes]
        metas = store.metas
        return Trace(
            name=self.name,
            store=ColumnStore.from_columns(
                columns,
                [store._names[c] for c in used.tolist()],
                [metas[i] for i in perm.tolist()],
            ),
        )

    def __len__(self) -> int:
        return self._row_count()

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._sorted_events())

    def __getitem__(self, idx: int) -> TraceEvent:
        return self._sorted_events()[idx]

    # -- vectorized views ----------------------------------------------------------
    def starts(self) -> np.ndarray:
        """Event start times in sorted order (vectorized)."""
        return self._store.start[self._sorted_rows()]

    def ends(self) -> np.ndarray:
        """Event end times in sorted order (vectorized)."""
        return self._store.end[self._sorted_rows()]

    def of_kinds(self, *kinds: EventKind) -> "Trace":
        """Masked view of the events whose kind is in ``kinds``."""
        rows = self._rows()
        codes = self._store.kind[rows]
        mask = np.zeros(len(_KINDS), dtype=bool)
        for k in kinds:
            mask[KIND_CODE[k]] = True
        return self._view(rows[mask[codes]])

    def count_kind(self, kind: EventKind) -> int:
        """Number of events of ``kind`` (no materialization)."""
        rows = self._rows()
        return int((self._store.kind[rows] == KIND_CODE[kind]).sum())

    def kernels(self) -> "Trace":
        """Only kernel-execution events."""
        return self.of_kinds(EventKind.KERNEL)

    def memcpys(self, direction: Optional[CopyKind] = None) -> "Trace":
        """Only memcpy events, optionally a single direction."""
        copies = self.of_kinds(EventKind.MEMCPY)
        if direction is None:
            return copies
        rows = copies._rows()
        sel = rows[self._store.copy[rows] == COPY_CODE[direction]]
        return self._view(sel)

    def by_name(self) -> Dict[str, "Trace"]:
        """Per-name views, keyed in first-occurrence (sorted) order."""
        perm = self._sorted_rows()
        codes = self._store.name_code[perm]
        groups: Dict[str, Trace] = {}
        if codes.size == 0:
            return groups
        # Names in order of first occurrence over the sorted sequence.
        uniq, first = np.unique(codes, return_index=True)
        for code in uniq[np.argsort(first, kind="stable")]:
            name = self._store.name_at(int(code))
            groups[name] = self._view(perm[codes == code], name=name)
        return groups

    def threads(self) -> List[int]:
        """Distinct issuing host threads."""
        rows = self._rows()
        return [int(t) for t in np.unique(self._store.thread[rows])]

    # -- vectorized summaries --------------------------------------------------------
    @property
    def start(self) -> float:
        """Earliest event start (0 for an empty trace)."""
        rows = self._rows()
        if rows.size == 0:
            return 0.0
        return float(self._store.start[rows].min())

    @property
    def end(self) -> float:
        """Latest event end (0 for an empty trace)."""
        rows = self._rows()
        if rows.size == 0:
            return 0.0
        return float(self._store.end[rows].max())

    @property
    def span(self) -> float:
        """Wall-clock extent covered by the trace."""
        return self.end - self.start

    def durations(self) -> np.ndarray:
        """Event durations in sorted order."""
        perm = self._sorted_rows()
        return self._store.end[perm] - self._store.start[perm]

    def sizes(self) -> np.ndarray:
        """Event byte counts in sorted order, as floats."""
        return self._store.nbytes[self._sorted_rows()].astype(float)

    def total_time(self) -> float:
        """Sum of event durations (double-counts overlap)."""
        if self._row_count() == 0:
            return 0.0
        return float(self.durations().sum())

    def busy_time(self) -> float:
        """Union length of the event intervals (no double counting).

        This is the device-busy time the paper's ``%Runtime`` weights
        use: overlapping kernels from parallel threads count once.

        A sorted interval merge's running ``cur_end`` equals the running
        maximum of the sorted end times (a merged run only breaks when
        a start exceeds *every* previous end), so run boundaries fall
        where ``start[i] > runmax[i-1]``. Per-run parts are accumulated
        in run order with scalar adds, reproducing the merge loop's
        left-to-right float sum bit for bit.
        """
        if self._row_count() == 0:
            return 0.0
        starts, runmax, breaks = self._merged_runs()
        firsts = np.concatenate(([0], np.flatnonzero(breaks) + 1))
        lasts = np.concatenate((firsts[1:] - 1, [starts.size - 1]))
        parts = runmax[lasts] - starts[firsts]
        busy = 0.0
        for p in parts.tolist():
            busy += p
        return busy

    def runtime_fraction(self, total_runtime: Optional[float] = None) -> float:
        """Fraction of the run spent in these events (union time).

        ``total_runtime`` defaults to the trace's own span.
        """
        total = self.span if total_runtime is None else total_runtime
        if total <= 0:
            return 0.0
        return min(1.0, self.busy_time() / total)

    def _merged_runs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted starts, running-max ends, and run-break mask."""
        starts = self.starts()
        runmax = np.maximum.accumulate(self.ends())
        breaks = starts[1:] > runmax[:-1]
        return starts, runmax, breaks

    def max_concurrency(self) -> int:
        """Maximum number of simultaneously-open intervals.

        Used to estimate an application's effective queue parallelism
        (the paper reads ~8 for LAMMPS, ~4 effective for CosmoFlow).
        """
        count = self._row_count()
        if count == 0:
            return 0
        rows = self._rows()
        store = self._store
        times = np.concatenate((store.start[rows], store.end[rows]))
        deltas = np.concatenate(
            (np.ones(count, dtype=np.int64), np.full(count, -1, dtype=np.int64))
        )
        order = np.lexsort((deltas, times))
        return int(np.cumsum(deltas[order]).max())

    def top_names_by_total_time(self, n: int = 5) -> List[str]:
        """The ``n`` event names with the largest summed duration.

        Matches the paper's Figure 4 presentation: CosmoFlow executes
        dozens of kernels; the top five cover ~half the kernel time.
        """
        totals = {
            name: tr.total_time() for name, tr in self.by_name().items()
        }
        return [
            name
            for name, _ in sorted(totals.items(), key=lambda kv: -kv[1])[:n]
        ]

    def __repr__(self) -> str:
        return (
            f"<Trace {self.name!r}: {len(self)} events, "
            f"span={self.span:.6g}s>"
        )

    # -- persistence -----------------------------------------------------------------
    def to_doc(self) -> Dict[str, Any]:
        """Columnar JSON document (root traces only)."""
        if self._selection is not None:
            raise TypeError("only a root trace can be serialized")
        doc = self._store.to_doc()
        doc["name"] = self.name
        return doc

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "Trace":
        """Rebuild a trace from :meth:`to_doc` output."""
        return cls(
            name=str(doc.get("name", "")), store=ColumnStore.from_doc(doc)
        )

    def to_arrays(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """Binary twin of :meth:`to_doc` (:meth:`ColumnStore.to_arrays`)."""
        if self._selection is not None:
            raise TypeError("only a root trace can be serialized")
        arrays, header = self._store.to_arrays()
        header["trace_name"] = self.name
        return arrays, header

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], header: Dict[str, Any]
    ) -> "Trace":
        """Rebuild a trace from :meth:`to_arrays` output."""
        return cls(
            name=str(header["trace_name"]),
            store=ColumnStore.from_arrays(arrays, header),
        )
