"""ReplicaService — a warm standby fed by shipped WAL bytes.

A replica owns a *mirror directory* holding byte-for-byte copies of the
primary's segment files (same names, same bytes).  Chunks arrive from a
:class:`~repro.replication.shipper.WalShipper`; :meth:`ingest` buffers
them, verifies whole CRC-framed records, persists each verified record
to the mirror, and applies its batch to a local
:class:`~repro.serving.pool.ServingPool` — durable order equals applied
order, exactly the primary's WAL contract.  Because the mirror is
bit-identical and monitors are deterministic, a replica that has
applied through seq *s* holds the bit-identical state the primary held
at *s*; promotion (:meth:`promote`) therefore only replays the durable
suffix past the apply cursor before the new primary accepts writes.

Corruption and fencing are handled at the frame boundary:

* a chunk whose record fails its CRC (bit-flipped in flight) raises
  :class:`CorruptShippedError` *before* anything is persisted — the
  shipper re-requests from the last durable cursor;
* an incomplete frame tail is simply buffered until the next chunk
  completes it, so a mid-record fetch can never tear the mirror;
* a batch stamped with an epoch below the replica's fence
  (:meth:`fence_below`) raises :class:`~repro.core.errors.FencedError`
  and is not persisted — a deposed primary's late appends die here
  even if they slipped past the primary-side store check.

Crash recovery is inherited from the WAL itself: restarting a replica
opens the mirror with :class:`~repro.persistence.wal.WriteAheadLog`
(repairing any torn tail), replays it through a fresh pool, and resumes
shipping from the verified byte cursor.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import BinaryIO, Callable, Hashable

from repro.core.errors import FencedError, ReplicationError, ReproError
from repro.persistence.codec import (
    BATCH_KIND_EPOCH,
    BATCH_KIND_EVENTS,
    BATCH_KIND_REGISTER,
    SUPPORTED_WAL_VERSIONS,
    WAL_MAGIC,
    WAL_MAGIC_PREFIX,
    CorruptRecordError,
    decode_batch_payload,
    decode_event,
)
from repro.persistence.snapshots import SnapshotStore
from repro.persistence.wal import (
    _SEGMENT_PREFIX,
    _SEGMENT_SUFFIX,
    WriteAheadLog,
)
from repro.serving.pool import ServingPool
from repro.serving.service import PromotionState, RiskService

__all__ = ["ReplicaService", "CorruptShippedError"]

TenantId = Hashable

_FRAME_HEADER = struct.Struct("<II")
#: Upper bound on a single record's declared payload length; a shipped
#: header declaring more than this is corruption, not a huge batch
#: (the primary's segments cap out at 64 MiB total).
_MAX_RECORD_BYTES = 64 * 1024 * 1024


class CorruptShippedError(ReplicationError):
    """A shipped record failed CRC/framing checks before persistence."""


def _segment_path(directory: Path, index: int) -> Path:
    return directory / f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


class _MirrorWriter:
    """Appends verified raw bytes to the mirror's segment files."""

    def __init__(
        self,
        directory: Path,
        segment: int,
        *,
        fsync: str = "flush",
        io_wrapper: Callable[[BinaryIO], BinaryIO] | None = None,
    ) -> None:
        self._directory = directory
        self._fsync = fsync
        self._io_wrapper = io_wrapper
        self._segment = int(segment)
        self._handle: BinaryIO | None = None
        self._open(self._segment)

    def _open(self, index: int) -> None:
        if self._handle is not None:
            self._handle.close()
        raw: BinaryIO = open(_segment_path(self._directory, index), "ab")
        if self._io_wrapper is not None:
            raw = self._io_wrapper(raw)
        self._handle = raw
        self._segment = index

    @property
    def segment(self) -> int:
        return self._segment

    def append(self, data: bytes) -> None:
        assert self._handle is not None
        self._handle.write(data)
        self._handle.flush()
        if self._fsync == "always":
            os.fsync(self._handle.fileno())

    def sync(self) -> None:
        assert self._handle is not None
        self._handle.flush()
        if self._fsync != "never":
            os.fsync(self._handle.fileno())

    def begin_segment(self, index: int, *, truncate: bool = False) -> None:
        """Seal the current segment and open the next mirror file.

        ``truncate`` resets the target file first — the bootstrap path,
        where local recovery may have pre-created an empty segment whose
        header bytes will arrive again in the shipped stream.
        """
        self.sync()
        if truncate:
            with open(_segment_path(self._directory, index), "wb"):
                pass
        self._open(index)

    def repair_to(self, offset: int) -> None:
        """Cut the active mirror file back to *offset* and reopen it.

        A failed append (e.g. ENOSPC with a partial write) may leave
        torn bytes past the verified offset; appending after them would
        corrupt the mirror, so the tail is truncated away first.
        """
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - close on faulted handle
                pass
            self._handle = None
        path = _segment_path(self._directory, self._segment)
        with open(path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())
        self._open(self._segment)

    def close(self) -> None:
        if self._handle is not None:
            try:
                self.sync()
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass
            self._handle.close()
            self._handle = None


class ReplicaService:
    """A read-serving standby applying the primary's shipped WAL.

    Parameters
    ----------
    graph:
        The same base network snapshot the primary serves.
    mirror_dir:
        Where the mirrored segments (and bootstrap snapshots) live.
        Opening an existing mirror recovers it: torn tail repaired,
        snapshot restored, WAL suffix replayed.
    node_id, mode, shards, monitor_defaults, fsync:
        As for :class:`~repro.serving.service.RiskService`.
    io_wrapper:
        Fault-injection hook on the mirror's append handle (the
        replica-side ENOSPC chaos case).
    """

    def __init__(
        self,
        graph,
        mirror_dir: str | os.PathLike,
        *,
        node_id: str = "replica",
        mode: str | None = None,
        shards: int | None = None,
        monitor_defaults: dict | None = None,
        fsync: str = "flush",
        io_wrapper: Callable[[BinaryIO], BinaryIO] | None = None,
    ) -> None:
        self._graph = graph
        self._directory = Path(mirror_dir)
        self._directory.mkdir(parents=True, exist_ok=True)
        self.node_id = str(node_id)
        self._monitor_defaults = dict(monitor_defaults or {})
        self._fsync = fsync
        self._io_wrapper = io_wrapper
        self._pool = ServingPool(
            graph, mode=mode, shards=shards,
            monitor_defaults=monitor_defaults,
        )
        self._registered: dict[TenantId, tuple[int, dict]] = {}
        self._watermarks: dict[TenantId, int] = {}
        #: Last WAL batch seq persisted AND applied by this replica.
        self._applied_seq = 0
        #: Epoch of the last epoch stamp seen in the stream.
        self._epoch = 0
        #: Minimum acceptable stream epoch (see :meth:`fence_below`).
        self._fence_epoch = 0
        #: Primary's durable seq as of the last fetch (lag reference).
        self._primary_seq = 0
        self._buffer = b""
        #: Bytes of the current segment already persisted (mirror offset).
        self._offset = 0
        self._promoted = False
        self._closed = False
        #: Held across each ingest, so promote() reads ``_applied_seq``
        #: with no shipped record persisted but not yet applied (the
        #: adopting service would replay that record a second time).
        self._ingest_lock = threading.Lock()
        self.stats = {
            "records_applied": 0,
            "batches_applied": 0,
            "segments_opened": 0,
            "corrupt_chunks": 0,
        }
        self._recover_local()

    # ------------------------------------------------------------------
    # Local recovery (restart of a replica that already mirrored bytes)
    # ------------------------------------------------------------------
    def _recover_local(self) -> None:
        snapshots = SnapshotStore(self._directory)
        with snapshots.pin_latest() as snapshot:
            if snapshot is not None:
                for tenant_snapshot in snapshot.tenants.values():
                    tenant_id = tenant_snapshot.tenant_id
                    self._pool.restore_tenant(
                        tenant_id, tenant_snapshot.load_state_blob()
                    )
                    self._watermarks[tenant_id] = tenant_snapshot.watermark
                    self._applied_seq = max(
                        self._applied_seq, tenant_snapshot.watermark
                    )
        # Opening the WAL repairs any torn mirror tail (a crash mid-
        # append), so the byte cursor below is the verified end.
        wal = WriteAheadLog(self._directory, fsync="never")
        try:
            for batch in wal.read_batches():
                self._apply_recovered(batch)
            segment, offset = wal.tail_cursor()
        finally:
            wal.close()
        self._writer = _MirrorWriter(
            self._directory, segment,
            fsync=self._fsync, io_wrapper=self._io_wrapper,
        )
        self._offset = offset

    def _apply_recovered(self, batch) -> None:
        if batch.kind == "epoch":
            self._epoch = max(self._epoch, int(batch.epoch or 0))
            self._applied_seq = max(self._applied_seq, batch.seq)
            return
        if batch.kind == "register":
            register = batch.register or {}
            k = int(register.get("k", 1))
            kwargs = dict(register.get("kwargs", {}))
            self._registered[batch.tenant_id] = (k, kwargs)
            if not self._pool.has_tenant(batch.tenant_id):
                self._pool.register(batch.tenant_id, k, **kwargs)
            self._applied_seq = max(self._applied_seq, batch.seq)
            return
        if batch.seq <= self._watermarks.get(batch.tenant_id, 0):
            self._applied_seq = max(self._applied_seq, batch.seq)
            return
        if not self._pool.has_tenant(batch.tenant_id):
            raise ReplicationError(
                f"mirrored batch {batch.seq} addresses tenant "
                f"{batch.tenant_id!r} with neither a snapshot nor a "
                "registration record"
            )
        self._pool.apply(batch.tenant_id, list(batch.events)).result()
        self._applied_seq = max(self._applied_seq, batch.seq)
        self.stats["batches_applied"] += 1

    # ------------------------------------------------------------------
    # Shipping surface (driven by WalShipper)
    # ------------------------------------------------------------------
    @property
    def durable_cursor(self) -> tuple[int, int]:
        """``(segment, offset)`` of the last verified, persisted byte."""
        return self._writer.segment, self._offset

    @property
    def applied_seq(self) -> int:
        return self._applied_seq

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def fence_epoch(self) -> int:
        return self._fence_epoch

    @property
    def lag(self) -> int:
        """Batches the primary has made durable that we have not applied."""
        return max(0, self._primary_seq - self._applied_seq)

    @property
    def is_cold(self) -> bool:
        """True when the mirror holds no durable batches at all."""
        return self._applied_seq == 0 and not self._watermarks

    @property
    def is_promoted(self) -> bool:
        """True once :meth:`promote` handed this node to a service."""
        return self._promoted

    def note_primary_seq(self, seq: int) -> None:
        self._primary_seq = max(self._primary_seq, int(seq))

    def fence_below(self, epoch: int) -> None:
        """Reject future stream batches stamped below *epoch*.

        Called by the failover coordinator on every non-promoted node
        the moment a new primary claims its epoch: anything the deposed
        primary manages to emit afterwards carries the old stamp and
        dies at ingest, before touching the mirror.
        """
        self._fence_epoch = max(self._fence_epoch, int(epoch))

    def reset_buffer(self) -> None:
        """Drop unverified buffered bytes (corruption retry path)."""
        self._buffer = b""

    def begin_segment(self, index: int) -> None:
        """Advance the mirror to segment *index* (shipper rotation)."""
        self._ensure_live()
        if self._buffer:
            raise ReplicationError(
                "segment advanced with an incomplete record buffered"
            )
        self._writer.begin_segment(int(index))
        self._offset = 0
        self.stats["segments_opened"] += 1

    def ingest(self, data: bytes) -> int:
        """Verify, persist, and apply shipped bytes; returns records applied.

        Bytes accumulate in an in-memory buffer; only complete records
        that pass CRC (and the segment header, at offset 0) move to the
        mirror file, so the durable mirror never contains unverified
        bytes.  Raises :class:`CorruptShippedError` on a framing/CRC
        failure with the mirror untouched by the bad record.
        """
        with self._ingest_lock:
            return self._ingest(data)

    def _ingest(self, data: bytes) -> int:
        self._ensure_live()
        self._buffer += data
        applied = 0
        try:
            while True:
                if self._offset == 0 and not self._header_done():
                    break
                if len(self._buffer) < _FRAME_HEADER.size:
                    break
                length, crc = _FRAME_HEADER.unpack_from(self._buffer, 0)
                if length > _MAX_RECORD_BYTES:
                    raise CorruptShippedError(
                        f"shipped record declares {length} bytes"
                    )
                end = _FRAME_HEADER.size + length
                if len(self._buffer) < end:
                    break  # incomplete frame: wait for the next chunk
                payload = self._buffer[_FRAME_HEADER.size:end]
                if zlib.crc32(payload) != crc:
                    raise CorruptShippedError(
                        "shipped record failed its CRC check"
                    )
                self._apply_shipped(payload, self._buffer[:end])
                self._buffer = self._buffer[end:]
                applied += 1
        except CorruptShippedError:
            self.stats["corrupt_chunks"] += 1
            self.reset_buffer()
            raise
        return applied

    def _header_done(self) -> bool:
        """Consume the 9 magic bytes that open every segment file."""
        header = len(WAL_MAGIC)
        if len(self._buffer) < header:
            return False
        if (
            self._buffer[:8] != WAL_MAGIC_PREFIX
            or self._buffer[8] not in SUPPORTED_WAL_VERSIONS
        ):
            raise CorruptShippedError("shipped segment header is invalid")
        self._persist(self._buffer[:header])
        self._buffer = self._buffer[header:]
        return True

    def _apply_shipped(self, payload: bytes, record: bytes) -> None:
        try:
            kind, seq, tenant_id, parts = decode_batch_payload(payload)
        except CorruptRecordError as error:
            raise CorruptShippedError(str(error)) from None
        if kind == BATCH_KIND_EPOCH:
            stamp = json.loads(parts[0].decode("utf-8"))
            epoch = int(stamp["epoch"])
            if epoch < self._fence_epoch:
                raise FencedError(epoch, self._fence_epoch)
            self._persist(record)
            self._epoch = epoch
            self._applied_seq = max(self._applied_seq, seq)
            self.stats["records_applied"] += 1
            return
        if self._epoch < self._fence_epoch:
            # Batches between epoch stamps inherit the last stamp; a
            # deposed primary's stream is still at the old epoch.
            raise FencedError(self._epoch, self._fence_epoch)
        self._persist(record)
        if kind == BATCH_KIND_REGISTER:
            register = json.loads(parts[0].decode("utf-8"))
            k = int(register.get("k", 1))
            kwargs = dict(register.get("kwargs", {}))
            self._registered[tenant_id] = (k, kwargs)
            if not self._pool.has_tenant(tenant_id):
                self._pool.register(tenant_id, k, **kwargs)
        elif kind == BATCH_KIND_EVENTS:
            events = [decode_event(part) for part in parts]
            if seq > self._watermarks.get(tenant_id, 0):
                if not self._pool.has_tenant(tenant_id):
                    raise ReplicationError(
                        f"shipped batch {seq} addresses unknown tenant "
                        f"{tenant_id!r} (bootstrap incomplete?)"
                    )
                self._pool.apply(tenant_id, events).result()
                self.stats["batches_applied"] += 1
        self._applied_seq = max(self._applied_seq, seq)
        self.stats["records_applied"] += 1

    def _persist(self, data: bytes) -> None:
        try:
            self._writer.append(data)
        except OSError:
            # Disk fault mid-append: the file may hold a torn prefix of
            # this record.  Repair to the verified offset now so the
            # shipper's rewind-and-retry appends onto clean bytes.
            self._writer.repair_to(self._offset)
            raise
        self._offset += len(data)

    def sync(self) -> None:
        """fsync the mirror's active segment."""
        self._writer.sync()

    # ------------------------------------------------------------------
    # Cold bootstrap
    # ------------------------------------------------------------------
    def bootstrap(self, files: dict, segment: int, offset: int = 0) -> None:
        """Install a snapshot payload and position the mirror cursor.

        Only valid on a cold replica (nothing mirrored yet); the files
        come from :meth:`~repro.replication.hub.ReplicationHub.bootstrap`
        and land relative to the mirror directory.
        """
        self._ensure_live()
        if not self.is_cold:
            raise ReplicationError(
                "bootstrap is only valid on a cold replica"
            )
        for relative, data in files.items():
            target = self._directory / relative
            if not target.resolve().is_relative_to(self._directory.resolve()):
                raise ReplicationError(
                    f"bootstrap path escapes the mirror dir: {relative!r}"
                )
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        if files:
            snapshots = SnapshotStore(self._directory)
            with snapshots.pin_latest() as snapshot:
                if snapshot is not None:
                    for tenant_snapshot in snapshot.tenants.values():
                        tenant_id = tenant_snapshot.tenant_id
                        self._pool.restore_tenant(
                            tenant_id, tenant_snapshot.load_state_blob()
                        )
                        self._watermarks[tenant_id] = (
                            tenant_snapshot.watermark
                        )
                        self._applied_seq = max(
                            self._applied_seq, tenant_snapshot.watermark
                        )
        if int(offset) != 0:
            raise ReplicationError("bootstrap cursors start at offset 0")
        self._writer.begin_segment(int(segment), truncate=True)
        self._offset = 0

    # ------------------------------------------------------------------
    # Read serving
    # ------------------------------------------------------------------
    def tenants(self) -> list[TenantId]:
        return self._pool.tenants()

    def query_topk(self, tenant_id: TenantId, *, max_lag: int | None = None):
        """The tenant's answer from the replica's applied state.

        Flagged ``stale=True`` whenever the replica knows the primary
        is ahead (``lag > 0``).  With ``max_lag`` set, a replica lagging
        beyond the bound raises :class:`ReplicationError` instead of
        serving an answer older than the caller tolerates — the
        router's staleness bound.
        """
        self._ensure_live()
        if max_lag is not None and self.lag > max_lag:
            raise ReplicationError(
                f"replica {self.node_id} lags {self.lag} batches "
                f"(> bound {max_lag})"
            )
        if not self._pool.has_tenant(tenant_id):
            raise ReproError(f"unknown tenant {tenant_id!r}")
        result = self._pool.query(tenant_id).result()
        if self.lag > 0:
            result = dataclasses.replace(result, stale=True)
        return result

    def health(self) -> dict:
        """Liveness/lag probe payload (see ``HealthMonitor``)."""
        segment, offset = self.durable_cursor
        return {
            "node": self.node_id,
            "role": "replica" if not self._promoted else "primary",
            "epoch": self._epoch,
            "fence_epoch": self._fence_epoch,
            "applied_seq": self._applied_seq,
            "primary_seq": self._primary_seq,
            "lag": self.lag,
            "segment": segment,
            "offset": offset,
            "tenants": len(self._pool.tenants()),
        }

    # ------------------------------------------------------------------
    # Promotion
    # ------------------------------------------------------------------
    def promote(
        self,
        *,
        epoch_store=None,
        node_id: str | None = None,
        fsync: str = "flush",
        **service_kwargs,
    ) -> RiskService:
        """Become the primary: adopt the warm pool into a RiskService.

        Closes the mirror writer, then constructs a durable
        :class:`~repro.serving.service.RiskService` over the mirror
        directory with this replica's pool adopted — construction
        replays only the durable batches past ``applied_seq`` and, with
        an ``epoch_store``, claims and stamps the next fencing epoch
        before the first write.  The replica object is spent afterwards
        (``ingest`` raises); reads continue through the returned
        service.
        """
        with self._ingest_lock:
            self._ensure_live()
            self._writer.close()
            self._promoted = True
        service = RiskService(
            self._graph,
            wal_dir=self._directory,
            fsync=fsync,
            monitor_defaults=self._monitor_defaults or None,
            adopt=PromotionState(
                pool=self._pool,
                registered=dict(self._registered),
                applied_upto=self._applied_seq,
            ),
            epoch_store=epoch_store,
            node_id=node_id or self.node_id,
            **service_kwargs,
        )
        return service

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop serving (idempotent).  A promoted replica's pool lives
        on inside the service that adopted it."""
        if self._closed:
            return
        self._closed = True
        if not self._promoted:
            self._writer.close()
            self._pool.shutdown()

    def _ensure_live(self) -> None:
        if self._closed:
            raise ReplicationError("replica is closed")
        if self._promoted:
            raise ReplicationError(
                "replica was promoted; use the adopting service"
            )

    def __enter__(self) -> "ReplicaService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
