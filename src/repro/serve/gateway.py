"""The serving gateway: queue -> micro-batcher -> worker pool -> service.

``ServeGateway`` sits between transports (web app, CLI, load generator)
and :class:`~repro.quest.service.QuestService`:

1. **Admission control** — a bounded :class:`RequestQueue`; overload sheds
   as :class:`QueueFullError` (HTTP 503) instead of growing the backlog.
2. **Dynamic micro-batching** — pending ``suggest`` requests coalesce up
   to ``max_batch_size``/``max_wait_ms`` and execute as one pass: bundle
   loads, feature extraction, per-part code lists and healthy
   recommendations are computed once per *unique* ref/part in the batch
   and memoized across batches, so repeat traffic stops paying the full
   per-bundle classification cost the bare service charges.  A memo
   entry is keyed by what it was computed from, so a write drops only
   what it changed: a recommendation holds its part's knowledge stamp
   (Fig. 5 ranks a known part's bundle against that part's nodes only),
   an assignment drops its own bundle, a custom code its own part's code
   list, and a model swap everything.
3. **Fixed worker pool** — per-request deadlines, timeout/cancellation,
   one retry on a worker fault, then the degraded-suggest chain
   (stored -> fallback classifier -> frequency baseline).
4. **Model registry + MVCC** — workers serve from an immutable
   :class:`~repro.serve.registry.ModelSnapshot` and take no lock:
   relstore reads (bundle loads, code lists, stored suggestions) pin an
   MVCC read view, and classification reads the knowledge base's
   published immutable view.  Writes run one at a time, each as one
   relstore transaction under the gateway's write lock: a failed service
   call rolls back atomically and publishes nothing, a committed one
   publishes a new knowledge view (with fresh stamps for the parts it
   touched), and the snapshot is then re-versioned.
5. **Stats** — every outcome lands in :class:`~repro.serve.stats.ServeStats`
   (exposed on the web app's ``/stats`` and in bench output).
"""

from __future__ import annotations

import operator
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..classify.results import Recommendation, store_recommendations
from ..data.bundle import DataBundle
from ..knowledge.extractor import test_document
from ..quest.errors import DegradedServiceError, UnknownBundleError
from ..quest.service import QuestService, SuggestionView
from ..quest.users import User
from .errors import DeadlineExceededError, GatewayStoppedError
from ..triage import (OVERRIDE_CONFIDENCE, override_recommendation,
                      score_confidence)
from .queue import RequestQueue, SuggestRequest
from .registry import ModelRegistry, ModelSnapshot
from .stats import ServeStats


@dataclass(frozen=True)
class GatewayConfig:
    """Tuning knobs of the gateway (see docs/serving.md)."""

    #: Fixed worker-pool size.  Workers are threads; classification is
    #: pure Python, so more workers buy overlap between batches (and keep
    #: serving while one batch runs a degraded fallback), not parallel CPU.
    workers: int = 2
    #: Admission-control bound: pending requests beyond this are shed.
    max_queue: int = 64
    #: Micro-batch cap: a worker takes at most this many requests at once.
    max_batch_size: int = 16
    #: How long the batcher waits for stragglers after the first request.
    max_wait_ms: float = 2.0
    #: Default per-request deadline (seconds); ``suggest(timeout=...)``
    #: overrides per call.
    default_timeout: float = 10.0
    #: Bounded size of the memo tables (entries per memo).
    memo_size: int = 8192
    #: Grace period ``stop()`` grants in-flight and queued work.
    drain_grace: float = 5.0
    #: Persist freshly computed (healthy) recommendations, as the bare
    #: service's ``suggest(persist=True)`` does.
    persist: bool = True


@dataclass(frozen=True)
class DrainReport:
    """What happened to outstanding work during ``stop()``."""

    #: Requests completed (or failed normally) during the grace period.
    drained: int
    #: Queued requests rejected with :class:`GatewayStoppedError`.
    cancelled: int
    #: The grace period that was granted.
    grace_seconds: float
    #: True when nothing had to be cancelled.
    clean: bool

    def summary(self) -> str:
        state = "clean" if self.clean else f"{self.cancelled} cancelled"
        return (f"drain: {self.drained} completed during "
                f"{self.grace_seconds:.1f}s grace, {state}")


def _models(snapshot: ModelSnapshot) -> tuple:
    """The model objects every memo entry depends on."""
    return (snapshot.classifier, snapshot.frequency_baseline,
            snapshot.fallback_classifier)


def _knowledge_stamp(snapshot: ModelSnapshot, part_id: str) -> int:
    """What a ranked list for *part_id* is computed from: the part's stamp
    in the classifier's published knowledge view, or the whole view's
    stamp for an unknown part (the Fig. 5 fallback ranks against every
    part)."""
    view = snapshot.classifier.knowledge_base.view
    stamp = view.part_stamp(part_id)
    return view.stamp if stamp is None else stamp


class _Memos:
    """The gateway's memos for one set of models (see ``ServeGateway``)."""

    __slots__ = ("models", "bundles", "features", "codes", "recs",
                 "persisted")

    def __init__(self, models: tuple,
                 persisted: dict[str, tuple[str, int]] | None = None) -> None:
        self.models = models
        self.bundles: dict[str, DataBundle] = {}
        self.features: dict[str, frozenset[str]] = {}
        self.codes: dict[str, list[str]] = {}
        #: ref -> (knowledge stamp, healthy recommendation)
        self.recs: dict[str, tuple[int, Recommendation]] = {}
        #: ref -> (part, knowledge stamp) its answer was last persisted under
        self.persisted = {} if persisted is None else persisted

    def overflowing(self, size: int) -> bool:
        return max(len(self.bundles), len(self.features),
                   len(self.recs)) > size


class ServeGateway:
    """Concurrent serving front-end over one :class:`QuestService`."""

    def __init__(self, service: QuestService,
                 config: GatewayConfig | None = None) -> None:
        self.service = service
        self.config = config or GatewayConfig()
        self.registry = ModelRegistry.from_service(service)
        self.stats = ServeStats()
        self._queue = RequestQueue(self.config.max_queue)
        self._threads: list[threading.Thread] = []
        self._start_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._stopped = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        # Serializes whole write-path service calls: their
        # read-compute-write sequences assume one writer at a time, which
        # snapshot isolation alone does not give (write skew; see
        # docs/transactions.md).
        self._write_lock = threading.Lock()
        # Memos (mutated under _memo_lock): bundles, extracted features,
        # per-part code lists and healthy recommendations survive across
        # batches and writes; a write drops only what it changed.  A
        # recommendation entry holds the knowledge stamp it was ranked
        # under (_knowledge_stamp, read before ranking) and is a hit only
        # while the current view gives the same stamp, so a decision on
        # one part leaves every other part's entries standing.  An assign
        # drops its own bundle (its stored error_code changes), a custom
        # code its own part's code list; overrides are checked per ref
        # before the memo and intakes only add refs, so neither drops
        # anything.  Every entry depends on the snapshot's model objects,
        # so a model swap starts new memos.  _writes counts dropping
        # writes: a bundle or code-list load that began before a drop
        # stores nothing, so it cannot put a stale result back.
        # A healthy answer is persisted only when freshly computed, and at
        # most once per ref and stamp (_Memos.persisted, which survives an
        # overflow).  An unchanged list would write nothing anyway
        # (store_recommendations compares first), but a re-ranked read
        # must not re-enqueue a review entry an engineer accepted or
        # escalated while nothing it depends on changed.
        self._memo_lock = threading.Lock()
        self._memos = _Memos(_models(self.registry.current()))
        self._writes = 0

    # ------------------------------------------------------------------ #
    # lifecycle

    @property
    def started(self) -> bool:
        """Whether the worker pool is running."""
        return bool(self._threads)

    @property
    def stopping(self) -> bool:
        """True once :meth:`stop` has begun (or finished).  Transports
        use this as the drain signal: the web app answers with
        ``Connection: close`` from this point on, so persistent
        connections converge instead of idling through the grace
        period."""
        return self._stopped

    @contextmanager
    def _write_txn(self):
        """The write lock around one relstore transaction: a service call
        that fails mid-way rolls back every row it touched, and one that
        commits has published its knowledge-base writes on exit."""
        with self._write_lock, self.service.database.transaction():
            yield

    def start(self) -> None:
        """Spawn the worker pool (idempotent; also called lazily)."""
        with self._start_lock:
            if self._threads or self._stopped:
                return
            for number in range(self.config.workers):
                thread = threading.Thread(
                    target=self._worker_loop, daemon=True,
                    name=f"serve-worker-{number}")
                thread.start()
                self._threads.append(thread)

    def stop(self, grace: float | None = None) -> DrainReport:
        """Drain and shut down; returns what happened to pending work.

        New work is refused immediately; queued and in-flight requests get
        *grace* seconds (default ``config.drain_grace``) to finish, then
        whatever is still queued is rejected with
        :class:`GatewayStoppedError` — never dropped silently.
        Idempotent: a second call reports an already-clean drain.
        """
        grace = self.config.drain_grace if grace is None else grace
        with self._start_lock:
            already_stopped, self._stopped = self._stopped, True
        self._queue.close()
        if already_stopped:
            return DrainReport(0, 0, grace, clean=True)
        completed_before = self.stats.resolved_total()
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            with self._inflight_lock:
                idle = self._inflight == 0
            if idle and len(self._queue) == 0:
                break
            time.sleep(0.005)
        leftovers = self._queue.drain()
        for request in leftovers:
            request.reject(GatewayStoppedError(
                "gateway stopped before this request was served"))
        self.stats.count("cancelled", len(leftovers))
        self._stop_event.set()
        for thread in self._threads:
            thread.join(timeout=max(grace, 1.0))
        self._threads.clear()
        drained = self.stats.resolved_total() - completed_before
        return DrainReport(drained=drained, cancelled=len(leftovers),
                           grace_seconds=grace, clean=not leftovers)

    def __enter__(self) -> "ServeGateway":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # read path: suggest

    def suggest(self, ref_no: str,
                timeout: float | None = None) -> SuggestionView:
        """Queue a suggestion request and wait for its micro-batch.

        Args:
            ref_no: the bundle's reference number.
            timeout: per-request deadline in seconds (default
                ``config.default_timeout``).

        Raises:
            QueueFullError: admission control shed the request.
            GatewayStoppedError: the gateway is shutting down.
            DeadlineExceededError: no answer within the deadline.
            UnknownBundleError / DegradedServiceError: as the service.
        """
        self.start()
        timeout = self.config.default_timeout if timeout is None else timeout
        request = SuggestRequest(ref_no=ref_no,
                                 deadline=time.monotonic() + timeout)
        self.stats.count("submitted")
        try:
            self._queue.put(request)
        except Exception:
            self.stats.count("rejected")
            raise
        try:
            view = request.wait(timeout)
        except DeadlineExceededError:
            self.stats.count("deadline_exceeded")
            raise
        return view

    # ------------------------------------------------------------------ #
    # write path: everything that mutates the relstore

    def assign(self, actor: User, ref_no: str, error_code: str) -> None:
        """Record an assignment transactionally and bump the model
        snapshot (the knowledge base just learned)."""
        with self._write_txn():
            self.service.assign_code(actor, ref_no, error_code)
        self.stats.count("assignments")
        self._drop(ref_no=ref_no)
        self.registry.bump()
        self.stats.count("swaps")

    def define_error_code(self, actor: User, error_code: str, part_id: str,
                          description: str) -> None:
        """Create a custom code transactionally (code lists change)."""
        with self._write_txn():
            self.service.define_error_code(actor, error_code, part_id,
                                           description)
        self._drop(part_id=part_id)
        self.registry.bump()
        self.stats.count("swaps")

    def register_bundles(self, bundles: list[DataBundle]) -> int:
        """Intake new bundles as one transaction (all land or none do)."""
        with self._write_txn():
            count = self.service.register_bundles(bundles)
        self.registry.bump()
        self.stats.count("swaps")
        return count

    def swap_models(self, **models) -> ModelSnapshot:
        """Publish retrained models (see :meth:`ModelRegistry.swap`); the
        next batch starts new memos."""
        snapshot = self.registry.swap(**models)
        self.stats.count("swaps")
        return snapshot

    def override(self, actor: User, ref_no: str, error_code: str,
                 reason: str = "") -> dict:
        """Pin an error code to a bundle transactionally.

        The new snapshot carries the refreshed override map, so the
        gateway serves the pin from the next version on.
        """
        with self._write_txn():
            record = self.service.apply_override(actor, ref_no, error_code,
                                                 reason)
            overrides = self.service.overrides.active_map()
        self.stats.count("overrides")
        self.registry.bump(overrides=overrides)
        self.stats.count("swaps")
        return record

    def claim_review(self, actor: User,
                     ref_no: str | None = None) -> dict | None:
        """Claim a review entry (queue state changes; models do not)."""
        with self._write_txn():
            entry = self.service.claim_review(actor, ref_no)
        self.stats.count("reviews")
        return entry

    def resolve_review(self, actor: User, ref_no: str, resolution: str,
                       error_code: str | None = None,
                       reason: str = "") -> dict:
        """Resolve a review entry; an ``override`` resolution pins the
        code and republishes the snapshot like :meth:`override`."""
        with self._write_txn():
            outcome = self.service.resolve_review(actor, ref_no, resolution,
                                                  error_code, reason)
            overrides = self.service.overrides.active_map()
        self.stats.count("reviews")
        if resolution == "override":
            self.stats.count("overrides")
            self.registry.bump(overrides=overrides)
            self.stats.count("swaps")
        return outcome

    # ------------------------------------------------------------------ #
    # introspection

    def stats_snapshot(self) -> dict:
        """Counters + latency percentiles + live queue state."""
        payload = self.stats.snapshot()
        payload["queue_depth"] = len(self._queue)
        payload["queue_capacity"] = self.config.max_queue
        payload["workers"] = self.config.workers
        payload["max_batch_size"] = self.config.max_batch_size
        payload["model_version"] = self.registry.version
        return payload

    # ------------------------------------------------------------------ #
    # worker pool

    def _worker_loop(self) -> None:
        while not self._stop_event.is_set():
            batch = self._queue.get_batch(self.config.max_batch_size,
                                          self.config.max_wait_ms / 1000.0)
            if not batch:
                if self._queue.closed and self._stop_event.is_set():
                    return
                continue
            with self._inflight_lock:
                self._inflight += len(batch)
            try:
                self._process_batch(batch)
            except Exception as exc:
                # A batcher thread must survive anything _process_batch
                # throws: reject whatever the batch left unresolved (the
                # callers would otherwise block until their timeout) and
                # keep serving.
                self.stats.count("batch_failures")
                for request in batch:
                    if not request.resolved:
                        request.reject(exc)
                        self.stats.count("failed")
            finally:
                with self._inflight_lock:
                    self._inflight -= len(batch)

    def _process_batch(self, batch: list[SuggestRequest]) -> None:
        """Serve one micro-batch as a single pass over the caches."""
        self.stats.count("batches")
        self.stats.count("batched_requests", len(batch))
        live: list[SuggestRequest] = []
        for request in batch:
            if request.abandoned:
                continue  # caller already raised DeadlineExceededError
            if request.expired:
                request.reject(DeadlineExceededError(
                    f"suggest({request.ref_no!r}) expired in the queue"))
                self.stats.count("deadline_exceeded")
                continue
            live.append(request)
        if not live:
            return
        snapshot = self.registry.current()
        memos = self._memos_for(snapshot)
        # Read before the read view opens: a write that drops memo entries
        # after this point keeps this batch's loads out of the memos.
        writes = self._writes
        bundles, features, codes, persist_views = {}, {}, {}, []
        # Bundle loads are pure relstore reads: a pinned read view gives
        # the whole batch one committed snapshot without making a
        # concurrent writer wait (or waiting on one).
        with self.service.database.read_view():
            for request in live:
                ref = request.ref_no
                if ref in bundles:
                    continue
                try:
                    bundles[ref] = self._load_bundle(memos, writes, ref)
                except Exception as exc:
                    bundles[ref] = exc
        for request in live:
            bundle = bundles[request.ref_no]
            if isinstance(bundle, Exception):
                request.reject(bundle)
                self.stats.count("failed")
                continue
            if request.expired:  # e.g. while earlier requests were served
                request.reject(DeadlineExceededError(
                    f"suggest({request.ref_no!r}) expired while batched"))
                self.stats.count("deadline_exceeded")
                continue
            try:
                view, fresh = self._serve_one(snapshot, memos, writes,
                                              bundle, features, codes)
            except Exception as exc:
                request.reject(exc)
                self.stats.count("failed")
                continue
            if self.config.persist and fresh:
                persist_views.append(view)
            request.resolve(view)
            self.stats.record_completion(time.monotonic()
                                         - request.enqueued_at)
        if persist_views:
            with self._write_txn():
                store_recommendations(
                    self.service.database,
                    [view.suggestions for view in persist_views])
                # Low-confidence suggestions enter the review queue, as
                # the bare service's persisting suggest() does.
                threshold = self.service.review_threshold
                for view in persist_views:
                    if (view.confidence is not None
                            and view.confidence.score < threshold):
                        self.service.review_queue.enqueue(
                            view.bundle.ref_no, view.bundle.part_id,
                            view.confidence.score)

    # ------------------------------------------------------------------ #
    # per-request classification with retry + degraded fallback

    def _serve_one(self, snapshot: ModelSnapshot, memos: _Memos,
                   writes: int, bundle: DataBundle, features: dict,
                   codes: dict) -> tuple[SuggestionView, bool]:
        """Classify one live request; retry once, then degrade.

        *features*/*codes* are the batch-local views of the memo tables —
        duplicate refs and same-part requests in the batch reuse them.
        Returns the view and whether it is a healthy classifier answer to
        persist (see :meth:`_remember`).
        """
        degraded, fresh = None, False
        pinned = snapshot.overrides.get(bundle.ref_no)
        if pinned is not None:
            # An engineer's pin wins over the classifier: no memo, no
            # classification, no persistence — exactly what the bare
            # service's suggest() answers for an overridden bundle.
            recommendation = override_recommendation(bundle.ref_no,
                                                     bundle.part_id, pinned)
            self.stats.count("override_hits")
        else:
            stamp = _knowledge_stamp(snapshot, bundle.part_id)
            recommendation = self._recall_recommendation(memos, bundle.ref_no,
                                                         stamp)
            if recommendation is None:
                try:
                    recommendation = self._classify_one(snapshot, bundle,
                                                        features)
                except Exception as first:
                    self.stats.count("retried")
                    try:
                        recommendation = self._classify_one(snapshot, bundle,
                                                            features)
                    except Exception:
                        recommendation, degraded = self._degraded_one(
                            snapshot, bundle, first)
                        self.stats.count("degraded")
                if degraded is None:
                    fresh = self._remember(memos, bundle, stamp,
                                           recommendation)
            else:
                self.stats.count("memo_hits")
        all_codes = codes.get(bundle.part_id)
        if all_codes is None:
            with self.service.database.read_view():
                all_codes = self._full_code_list(snapshot, memos, writes,
                                                 bundle.part_id)
            codes[bundle.part_id] = all_codes
        if pinned is not None:
            return SuggestionView(bundle=bundle, suggestions=recommendation,
                                  all_codes=all_codes, degraded=None,
                                  confidence=OVERRIDE_CONFIDENCE,
                                  source="override"), False
        return SuggestionView(bundle=bundle, suggestions=recommendation,
                              all_codes=all_codes, degraded=degraded,
                              confidence=score_confidence(recommendation),
                              source="classifier"), fresh

    def _classify_one(self, snapshot: ModelSnapshot, bundle: DataBundle,
                      features: dict):
        """One classification against the snapshot (fault-injection point:
        the tier-2 suite wraps this with slow/flaky plans)."""
        feats = features.get(bundle.ref_no)
        if feats is None:
            feats = self._extract_features(snapshot, bundle)
            features[bundle.ref_no] = feats
        return snapshot.classifier.rank_codes(bundle.part_id, feats,
                                              ref_no=bundle.ref_no)

    def _degraded_one(self, snapshot: ModelSnapshot, bundle: DataBundle,
                      cause: Exception):
        """PR 2's degraded chain, against the snapshot's models:
        stored suggestion -> BoW fallback -> frequency baseline."""
        with self.service.database.read_view():
            stored = self.service.stored_suggestion(bundle.ref_no)
        if stored is not None:
            return stored, "stored"
        if snapshot.fallback_classifier is not None:
            try:
                return (snapshot.fallback_classifier.classify_bundle(
                    bundle.without_label()), "fallback")
            except Exception:
                pass  # fall through to the frequency baseline
        try:
            recommendation = snapshot.frequency_baseline.classify_bundle(
                bundle.without_label())
        except Exception as exc:
            raise DegradedServiceError(
                f"classifier failed for {bundle.ref_no!r} ({cause!r}) and "
                f"no fallback succeeded") from exc
        if not recommendation.codes:
            raise DegradedServiceError(
                f"classifier failed for {bundle.ref_no!r} ({cause!r}) and "
                f"no fallback produced any suggestion") from cause
        return recommendation, "frequency"

    # ------------------------------------------------------------------ #
    # memos keyed by what each answer was computed from

    def _memos_for(self, snapshot: ModelSnapshot) -> _Memos:
        """The memos of *snapshot*'s models: new ones after a model swap,
        and new bounded ones after an overflow.  An overflow keeps the
        persisted stamps that still hold, so the reads that re-rank after
        it re-persist and re-enqueue nothing."""
        models = _models(snapshot)
        with self._memo_lock:
            memos = self._memos
            if not all(map(operator.is_, memos.models, models)):
                memos = self._memos = _Memos(models)
            elif memos.overflowing(self.config.memo_size):
                persisted = memos.persisted
                for ref in [ref for ref, (part_id, stamp) in persisted.items()
                            if _knowledge_stamp(snapshot, part_id) != stamp]:
                    del persisted[ref]
                memos = self._memos = _Memos(models, persisted)
            return memos

    def _drop(self, *, ref_no: str | None = None,
              part_id: str | None = None) -> None:
        """After a committed write: drop the bundle or code list it
        changed, and count the write so a load that began before it
        cannot store its stale result."""
        with self._memo_lock:
            self._writes += 1
            if ref_no is not None:
                self._memos.bundles.pop(ref_no, None)
            if part_id is not None:
                self._memos.codes.pop(part_id, None)

    @staticmethod
    def _recall_recommendation(memos: _Memos, ref_no: str,
                               stamp: int) -> Recommendation | None:
        """A healthy recommendation already ranked under *stamp*, or
        ``None``.  Never returns degraded answers — those are transient
        and recomputed on every request."""
        entry = memos.recs.get(ref_no)
        return entry[1] if entry is not None and entry[0] == stamp else None

    def _remember(self, memos: _Memos, bundle: DataBundle, stamp: int,
                  recommendation: Recommendation) -> bool:
        """Memoize a freshly ranked healthy recommendation; returns whether
        to persist it: once per ref and knowledge stamp."""
        persisted = (bundle.part_id, stamp)
        with self._memo_lock:
            memos.recs[bundle.ref_no] = (stamp, recommendation)
            if memos.persisted.get(bundle.ref_no) == persisted:
                return False
            memos.persisted[bundle.ref_no] = persisted
            return True

    def _load_bundle(self, memos: _Memos, writes: int,
                     ref_no: str) -> DataBundle:
        bundle = memos.bundles.get(ref_no)
        if bundle is None:
            bundle = self.service.bundle(ref_no)
            if bundle is None:
                raise UnknownBundleError(f"no bundle {ref_no!r}")
            with self._memo_lock:
                if self._writes == writes:
                    memos.bundles[ref_no] = bundle
        return bundle

    def _extract_features(self, snapshot: ModelSnapshot,
                          bundle: DataBundle) -> frozenset[str]:
        memos = self._memos_for(snapshot)
        feats = memos.features.get(bundle.ref_no)
        if feats is None:
            feats = snapshot.classifier.extractor.extract_text(
                test_document(bundle.without_label()))
            with self._memo_lock:
                memos.features[bundle.ref_no] = feats
        return feats

    def _full_code_list(self, snapshot: ModelSnapshot, memos: _Memos,
                        writes: int, part_id: str) -> list[str]:
        all_codes = memos.codes.get(part_id)
        if all_codes is None:
            # Same merge as QuestService.full_code_list, but ranking with
            # the *snapshot's* frequency baseline so a model swap changes
            # what is served without touching the service.
            ranked = [scored.error_code for scored in
                      snapshot.frequency_baseline.ranked_codes(part_id)]
            custom = [row["error_code"]
                      for row in self.service.custom_codes(part_id)]
            all_codes = ranked + [code for code in custom
                                  if code not in ranked]
            with self._memo_lock:
                if self._writes == writes:
                    memos.codes[part_id] = all_codes
        return all_codes

    def __repr__(self) -> str:
        return (f"<ServeGateway workers={self.config.workers} "
                f"queue={len(self._queue)}/{self.config.max_queue} "
                f"version={self.registry.version}>")
