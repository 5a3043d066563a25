"""Simulated stable storage.

The disk is the only state that survives a site crash: page images that
the buffer pool flushed, and the forced prefix of the write-ahead log.
Reads and writes consume simulated time according to
:class:`StorageConfig`, so experiments see realistic relative costs
(log forces dominate commit latency, buffer misses dominate reads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import PageNotFound
from repro.storage.page import Page

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel


@dataclass(frozen=True)
class StorageConfig:
    """Simulated device timings (arbitrary time units).

    Defaults keep a 1 : 10 CPU : I/O ratio, which is enough for the
    protocol comparisons (absolute values cancel out of every ratio the
    experiments report).
    """

    page_read_time: float = 1.0
    page_write_time: float = 1.0
    log_force_time: float = 1.0
    cpu_op_time: float = 0.1


class StableDisk:
    """Crash-surviving storage for one site.

    Holds private page images (as last flushed) and the stable log
    records (as last forced).  A crash never touches this object; the
    owning :class:`~repro.localdb.engine.LocalDatabase` simply discards
    its volatile structures and rebuilds from here.
    """

    def __init__(self, kernel: "Kernel", site: str, config: Optional[StorageConfig] = None):
        from repro.sim.sync import FifoLock

        self._kernel = kernel
        self.site = site
        self.config = config or StorageConfig()
        # The log is one serial device: concurrent forces queue.  (Data
        # pages are left unserialized, modelling striped data disks.)
        self._log_device = FifoLock(name=f"{site}:log-device")
        self._pages: dict[int, Page] = {}
        self._log: list[Any] = []
        self._meta: dict[str, Any] = {}
        self.page_reads = 0
        self.page_writes = 0
        self.log_forces = 0
        # Opt-in detailed tracing: emit a "log_force" trace record per
        # force so the span layer can build log-force spans.  Off by
        # default -- metrics-only runs keep traces byte-identical.
        self.trace_forces = False
        # Incremented by the owning engine at crash time: an I/O that was
        # in flight when the crash happened does not take effect.
        self.crash_epoch = 0

    def _guard(self) -> int:
        return self.crash_epoch

    def _check(self, epoch: int) -> None:
        if epoch != self.crash_epoch:
            from repro.errors import SiteCrashed

            raise SiteCrashed(f"{self.site} crashed during I/O")

    # -- pages ---------------------------------------------------------------

    def has_page(self, page_id: int) -> bool:
        return page_id in self._pages

    def read_page(self, page_id: int) -> Generator[Any, Any, Page]:
        """Return a private copy of the stable image of ``page_id``."""
        if page_id not in self._pages:
            raise PageNotFound(f"{self.site}: page {page_id}")
        epoch = self._guard()
        yield self.config.page_read_time
        self._check(epoch)
        self.page_reads += 1
        return self._pages[page_id].snapshot()

    def write_page(self, page: Page) -> Generator[Any, Any, None]:
        """Persist a private copy of ``page``, taken now."""
        return self.write_image(page.snapshot())

    def write_image(self, image: Page) -> Generator[Any, Any, None]:
        """Persist ``image`` itself: the caller hands over ownership.

        The buffer pool's flush path -- it has already frozen a private
        image before forcing the log -- and brand-new pages come this
        way, so a flush copies the page once, not twice.
        """
        epoch = self._guard()
        yield self.config.page_write_time
        self._check(epoch)
        self.page_writes += 1
        self._pages[image.page_id] = image

    def install_image(self, image: Page) -> None:
        """:meth:`write_image` at once, uncounted: pre-existing state only."""
        self._pages[image.page_id] = image

    def stable_page(self, page_id: int) -> Optional[Page]:
        """Direct (timeless) access for assertions and recovery analysis."""
        page = self._pages.get(page_id)
        return page.snapshot() if page is not None else None

    # -- log -------------------------------------------------------------------

    def append_log(self, records: list[Any]) -> Generator[Any, Any, None]:
        """Force ``records`` onto the stable log (one synchronous write).

        The log device is serial: concurrent forces queue behind each
        other -- which is what makes group commit worthwhile.
        """
        epoch = self._guard()
        start = self._kernel.now if self.trace_forces else 0.0
        yield from self._log_device.acquire()
        try:
            self._check(epoch)
            yield self.config.log_force_time
            self._check(epoch)
            self.log_forces += 1
            self._log.extend(records)
            if self.trace_forces and self._kernel.trace.enabled:
                self._kernel.trace.emit(
                    "log_force", self.site, f"force-{self.log_forces}",
                    txn=getattr(records[-1], "txn_id", None),
                    records=len(records), start=start,
                )
        finally:
            self._release_log_device()

    def _release_log_device(self) -> None:
        try:
            self._log_device.release()
        except RuntimeError:
            pass  # reset by a crash while we held it

    def install_log(self, records: list[Any]) -> None:
        """:meth:`append_log` at once, uncounted: pre-existing state only."""
        self._log.extend(records)

    def stable_log(self) -> list[Any]:
        """The forced log prefix (what recovery will see)."""
        return list(self._log)

    def truncate_log(self, keep_from_index: int) -> None:
        """Drop records before ``keep_from_index`` (checkpointing)."""
        self._log = self._log[keep_from_index:]

    # -- durable metadata (catalog) ------------------------------------------

    def set_meta(self, key: str, value: Any) -> None:
        """Synchronously persist a catalog entry (table definitions)."""
        self._meta[key] = value

    def get_meta(self, key: str, default: Any = None) -> Any:
        return self._meta.get(key, default)

    def meta_keys(self) -> list[str]:
        return list(self._meta)

    def __repr__(self) -> str:
        return f"<StableDisk {self.site} pages={len(self._pages)} log={len(self._log)}>"
