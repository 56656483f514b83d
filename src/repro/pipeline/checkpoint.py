"""Atomic per-window checkpoints with a hash-verified manifest.

Each completed window is persisted as one JSON file written atomically
(temp file + fsync + rename, via :func:`repro.ioutils.atomic_write`) and
recorded with the SHA-256 of its content.  Resume therefore never trusts a
file blindly: :meth:`CheckpointStore.scan` re-hashes every manifest entry
and returns the longest verified prefix, so a corrupted or truncated
checkpoint (disk fault, partial copy) silently degrades to "redo that
window" rather than poisoning the resumed run.

The manifest itself is **append-style**: ``manifest.json`` holds the last
compacted snapshot (run state included), and each ``save_window`` appends
one durable line to ``manifest.log`` instead of rewriting the whole
document — rewriting made a run of *n* windows cost O(n²) manifest bytes.
Readers replay the log over the snapshot (a line for window *w* truncates
recorded windows ``> w``, the "recompute from here" resume rule), a torn
final log line — the only damage a crash mid-append can cause — is
skipped, and :meth:`CheckpointStore.compact` folds the log back into the
snapshot.  Compaction happens automatically every
:data:`COMPACT_EVERY` appends, and a pre-log directory (``manifest.json``
alone) reads exactly as before.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.signature import Signature
from repro.core.signature_io import signature_from_dict, signature_to_dict
from repro.exceptions import CheckpointError
from repro.ioutils import append_line, atomic_write, content_sha256, file_sha256, fsync_dir

#: Format version stamped into window files and the manifest.
CHECKPOINT_VERSION = 1

MANIFEST_NAME = "manifest.json"

MANIFEST_LOG_NAME = "manifest.log"

#: Appends between automatic manifest compactions.
COMPACT_EVERY = 512


@dataclass(frozen=True)
class WindowEntry:
    """One manifest row: a completed window and its content hash."""

    window: int
    file: str
    sha256: str
    mode: str = "exact"


@dataclass
class CheckpointScan:
    """Result of validating a checkpoint directory.

    ``good`` is the longest contiguous prefix of windows whose files exist
    and hash-verify; ``issues`` explains anything that stopped the scan
    early (missing file, hash mismatch, unreadable manifest).
    """

    good: List[WindowEntry] = field(default_factory=list)
    issues: List[str] = field(default_factory=list)

    @property
    def next_window(self) -> int:
        """Index of the first window that still needs computing."""
        return len(self.good)


class CheckpointStore:
    """Durable per-window signature storage under one directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._entries: Optional[List[WindowEntry]] = None
        self._log_count = 0

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def manifest_log_path(self) -> Path:
        return self.directory / MANIFEST_LOG_NAME

    def window_path(self, window: int) -> Path:
        return self.directory / f"window-{window:04d}.json"

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def save_window(
        self,
        window: int,
        signatures: Mapping[str, Signature],
        meta: Mapping | None = None,
        mode: str = "exact",
    ) -> WindowEntry:
        """Atomically persist one window and extend the manifest.

        ``window`` must be the next unwritten index, or an already-written
        index (in which case it is overwritten and any later entries are
        discarded — the resume semantics of "recompute from here").

        The manifest grows by one appended log line (O(1) per save); the
        compacted ``manifest.json`` snapshot is refreshed every
        :data:`COMPACT_EVERY` saves and on :meth:`compact`.
        """
        entries = self._cached_entries()
        if window > len(entries):
            raise CheckpointError(
                f"cannot save window {window}: only {len(entries)} windows "
                f"checkpointed so far (windows are checkpointed in order)"
            )
        payload = {
            "version": CHECKPOINT_VERSION,
            "window": window,
            "mode": mode,
            "meta": dict(meta or {}),
            "signatures": {
                owner: signature_to_dict(signature)
                for owner, signature in signatures.items()
            },
        }
        serialized = json.dumps(payload, sort_keys=True)
        path = self.window_path(window)
        entry = WindowEntry(
            window=window, file=path.name, sha256=content_sha256(serialized), mode=mode
        )
        try:
            with atomic_write(path, "w") as handle:
                handle.write(serialized)
            append_line(self.manifest_log_path, _log_line(entry))
        except BaseException:
            self._entries = None
            raise
        self._entries = entries[:window] + [entry]
        self._log_count += 1
        if self._log_count >= COMPACT_EVERY:
            self.compact()
        return entry

    def _cached_entries(self) -> List[WindowEntry]:
        if self._entries is None:
            self._entries = self._read_manifest_entries(strict=True)
        return self._entries

    def compact(self) -> List[WindowEntry]:
        """Fold the manifest log into the ``manifest.json`` snapshot.

        The snapshot is byte-compatible with the pre-log manifest format;
        :meth:`scan` sees the identical window list before and after.  The
        log is removed only once the new snapshot is durable, and replaying
        a stale log over a fresh snapshot is idempotent, so a crash between
        the two writes loses nothing.
        """
        entries = self._read_manifest_entries(strict=True)
        self._write_manifest(entries)
        try:
            os.unlink(self.manifest_log_path)
        except FileNotFoundError:
            pass
        else:
            fsync_dir(self.directory)
        self._entries = entries
        self._log_count = 0
        return entries

    def _write_manifest(
        self, entries: List[WindowEntry], run_state: Mapping | None = None
    ) -> None:
        if run_state is None:
            run_state = self.run_state()
        document = {
            "version": CHECKPOINT_VERSION,
            "entries": [
                {
                    "window": entry.window,
                    "file": entry.file,
                    "sha256": entry.sha256,
                    "mode": entry.mode,
                }
                for entry in entries
            ],
        }
        if run_state:
            document["run_state"] = dict(run_state)
        with atomic_write(self.manifest_path, "w") as handle:
            json.dump(document, handle, sort_keys=True)

    def set_run_state(self, state: Mapping) -> None:
        """Persist run-level state (scheme identity, contract) in the manifest.

        The pipeline stamps its configuration here so a resume can verify
        the checkpointed prefix was produced by a compatible run before
        appending new windows to it.
        """
        entries = self._read_manifest_entries(strict=True)
        self._write_manifest(entries, run_state=state)
        try:
            os.unlink(self.manifest_log_path)
        except FileNotFoundError:
            pass
        else:
            fsync_dir(self.directory)
        self._entries = entries
        self._log_count = 0

    def run_state(self) -> Dict:
        """The manifest's run-level state (empty for pre-existing stores)."""
        if not self.manifest_path.exists():
            return {}
        try:
            with open(self.manifest_path, encoding="utf-8") as handle:
                document = json.load(handle)
            return dict(document.get("run_state", {}))
        except (json.JSONDecodeError, TypeError, ValueError, AttributeError):
            return {}

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _read_manifest_entries(self, strict: bool) -> List[WindowEntry]:
        """Replay the manifest from disk: snapshot, then log lines in order."""
        entries = self._read_snapshot_entries(strict)
        log_entries = self._read_log_entries(strict)
        self._log_count = len(log_entries)
        for entry in log_entries:
            if entry.window > len(entries):
                if strict:
                    raise CheckpointError(
                        f"manifest log names window {entry.window} with only "
                        f"{len(entries)} windows recorded before it"
                    )
                return []
            entries = entries[: entry.window] + [entry]
        return entries

    def _read_snapshot_entries(self, strict: bool) -> List[WindowEntry]:
        if not self.manifest_path.exists():
            return []
        try:
            with open(self.manifest_path, encoding="utf-8") as handle:
                document = json.load(handle)
            entries = [
                WindowEntry(
                    window=int(item["window"]),
                    file=str(item["file"]),
                    sha256=str(item["sha256"]),
                    mode=str(item.get("mode", "exact")),
                )
                for item in document["entries"]
            ]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            if strict:
                raise CheckpointError(
                    f"unreadable checkpoint manifest {self.manifest_path}: {exc}"
                ) from exc
            return []
        return entries

    def _read_log_entries(self, strict: bool) -> List[WindowEntry]:
        if not self.manifest_log_path.exists():
            return []
        try:
            raw = self.manifest_log_path.read_text(encoding="utf-8")
        except OSError as exc:
            if strict:
                raise CheckpointError(
                    f"unreadable checkpoint manifest log "
                    f"{self.manifest_log_path}: {exc}"
                ) from exc
            return []
        lines = raw.split("\n")
        entries: List[WindowEntry] = []
        for position, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                item = json.loads(line)
                entries.append(
                    WindowEntry(
                        window=int(item["window"]),
                        file=str(item["file"]),
                        sha256=str(item["sha256"]),
                        mode=str(item.get("mode", "exact")),
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                if position == len(lines) - 1 and not raw.endswith("\n"):
                    # A crash mid-append tears at most the final line; the
                    # committed prefix before it is intact.
                    continue
                if strict:
                    raise CheckpointError(
                        f"unreadable checkpoint manifest log line "
                        f"{position + 1} in {self.manifest_log_path}: {exc}"
                    ) from exc
                return []
        return entries

    def scan(self) -> CheckpointScan:
        """Validate the directory and return the longest good window prefix."""
        scan = CheckpointScan()
        self._entries = None
        try:
            entries = self._read_manifest_entries(strict=True)
        except CheckpointError as exc:
            scan.issues.append(str(exc))
            return scan
        for position, entry in enumerate(entries):
            if entry.window != position:
                scan.issues.append(
                    f"manifest entry {position} names window {entry.window}; "
                    f"discarding it and later windows"
                )
                break
            path = self.directory / entry.file
            if not path.exists():
                scan.issues.append(f"checkpoint file {entry.file} missing")
                break
            if file_sha256(path) != entry.sha256:
                scan.issues.append(
                    f"checkpoint file {entry.file} failed hash verification"
                )
                break
            scan.good.append(entry)
        return scan

    def load_window(self, window: int) -> Tuple[Dict[str, Signature], Dict]:
        """Load one window's signatures and metadata.

        Verifies structure *and* — when the manifest records this window —
        the SHA-256 of the payload file, so bit rot that still parses as
        JSON (a flipped digit in a weight, say) surfaces as
        :class:`~repro.exceptions.CheckpointError` instead of a silently
        wrong signature.
        """
        path = self.window_path(window)
        if not path.exists():
            raise CheckpointError(f"no checkpoint for window {window} at {path}")
        for entry in self._read_manifest_entries(strict=False):
            if entry.window == window and file_sha256(path) != entry.sha256:
                raise CheckpointError(
                    f"checkpoint file {entry.file} failed hash verification"
                )
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"{path}: unsupported checkpoint version {payload.get('version')!r}"
                )
            signatures = {
                owner: signature_from_dict(owner, mapping)
                for owner, mapping in payload["signatures"].items()
            }
            return signatures, dict(payload.get("meta", {}))
        except CheckpointError:
            raise
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc

    def clear(self) -> None:
        """Remove every checkpoint artefact (fresh-run semantics)."""
        for path in self.directory.glob("window-*.json"):
            os.unlink(path)
        for path in (self.manifest_path, self.manifest_log_path):
            if path.exists():
                os.unlink(path)
        self._entries = None
        self._log_count = 0


def _log_line(entry: WindowEntry) -> str:
    return json.dumps(
        {
            "window": entry.window,
            "file": entry.file,
            "sha256": entry.sha256,
            "mode": entry.mode,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
