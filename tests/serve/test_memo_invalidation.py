"""Per-part gateway memos: a write drops only what it changed.

The gateway keeps its memos across writes.  A recommendation is keyed by
the knowledge stamp of the part it was ranked against (the whole view's
for an unknown part), an assign drops its own bundle, a custom code its
own part's code list, and a model swap everything.  These tests hold the
memoized answers to the bare service's: after any interleaving of
suggests and writes, every gateway answer equals
``QuestService.suggest(persist=False)`` byte for byte, serialized as the
parity suite serializes it.
"""

import dataclasses
import itertools
import sys
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.classify import RankedKnnClassifier
from repro.core import QATK, QatkConfig
from repro.data import GeneratorConfig, generate_corpus, plan_corpus
from repro.evaluate import experiment_subset
from repro.quest import Role, User
from repro.relstore import Database
from repro.serve import GatewayConfig, ServeGateway

from tests.serve.test_parity import PARITY_PARAMS, ranked_bytes

ENGINEER = User("memo-power", Role.POWER_EXPERT)

#: Services built so far: each gets its own database and new part ID.
_numbers = itertools.count()


@pytest.fixture(scope="module")
def trained(taxonomy):
    """A toolkit trained on the 4-part parity corpus, its held-out
    bundles, and a second classifier over the same knowledge base (the
    model a swap publishes)."""
    plan = plan_corpus(taxonomy, seed=23, parameters=PARITY_PARAMS)
    corpus = generate_corpus(taxonomy=taxonomy, plan=plan,
                             config=GeneratorConfig(seed=23))
    qatk = QATK(taxonomy, QatkConfig(feature_mode="words"),
                database=Database("memo-kb"))
    bundles = experiment_subset(corpus.bundles)
    split = int(len(bundles) * 0.8)
    qatk.train(bundles[:split])
    overlap = RankedKnnClassifier(qatk.knowledge_base,
                                  qatk.classifier.extractor, "overlap")
    return qatk, bundles[split:][:12], overlap


class System:
    """A fresh service + gateway over the shared toolkit.

    The knowledge base is shared with every earlier ``System``, so each
    one brings its own untrained part ID for intakes to use.
    """

    def __init__(self, trained, **config) -> None:
        qatk, held, self.swap_to = trained
        number = next(_numbers)
        self.service = qatk.make_service(Database(f"memo-app-{number}"))
        self.service.register_bundles([bundle.without_label()
                                       for bundle in held])
        self.held = held
        self.refs = [bundle.ref_no for bundle in held]
        self.parts = {bundle.ref_no: bundle.part_id for bundle in held}
        self.new_part = f"P-NEW-{number}"
        self.names = (f"{number}-{serial}" for serial in itertools.count())
        settings_ = dict(workers=2, max_queue=64, max_batch_size=8,
                         max_wait_ms=1.0, default_timeout=10.0,
                         drain_grace=2.0)
        settings_.update(config)
        self.gw = ServeGateway(self.service, GatewayConfig(**settings_))

    def expected(self, ref: str) -> bytes:
        return ranked_bytes(self.service.suggest(ref, persist=False))

    def check(self, ref: str) -> None:
        assert ranked_bytes(self.gw.suggest(ref)) == self.expected(ref), \
            f"gateway diverged on {ref}"

    def check_all(self) -> None:
        for ref in self.refs:
            self.check(ref)

    def codes(self, ref: str) -> list[str]:
        return self.service.full_code_list(self.parts[ref])

    # -- the steps -------------------------------------------------------

    def assign(self, ref: str, pick: int) -> None:
        """Assign (or re-assign, which retracts the old node) a code."""
        codes = self.codes(ref)
        if codes:
            self.gw.assign(ENGINEER, ref, codes[pick % len(codes)])

    def custom(self, ref: str) -> None:
        self.gw.define_error_code(ENGINEER, f"X-{next(self.names)}",
                                  self.parts[ref], "custom")

    def override(self, ref: str, pick: int) -> None:
        codes = self.codes(ref)
        if codes:
            self.gw.override(ENGINEER, ref, codes[pick % len(codes)])

    def review(self, resolution: str) -> None:
        pending = self.service.pending_reviews()
        if not pending:
            return
        ref = pending[0]["ref_no"]
        codes = self.codes(ref)
        if resolution == "override" and not codes:
            resolution = "accept"
        self.gw.claim_review(ENGINEER, ref)
        self.gw.resolve_review(ENGINEER, ref, resolution,
                               codes[0] if resolution == "override" else None)

    def intake(self, source: int) -> str:
        """Register a bundle of the untrained part (Fig. 5 fallback)."""
        bundle = dataclasses.replace(
            self.held[source % len(self.held)].without_label(),
            ref_no=f"RN-{next(self.names)}", part_id=self.new_part)
        self.gw.register_bundles([bundle])
        self.refs.append(bundle.ref_no)
        self.parts[bundle.ref_no] = self.new_part
        return bundle.ref_no

    def first_node(self, source: int) -> None:
        """The new part gains a node: a custom code, then an assign."""
        new_refs = [ref for ref in self.refs
                    if self.parts[ref] == self.new_part]
        ref = new_refs[0] if new_refs else self.intake(source)
        if not self.codes(ref):
            self.custom(ref)
        self.assign(ref, 0)

    def last_node(self) -> None:
        """The new part loses every node (a knowledge retraction)."""
        knowledge_base = self.service.classifier.knowledge_base
        for node in [node for node in knowledge_base.nodes()
                     if node.part_id == self.new_part]:
            for _ in range(node.support):
                knowledge_base.remove_observation(
                    node.part_id, node.error_code, node.features)

    def swap(self) -> None:
        """Publish the other classifier, to the service and the gateway."""
        previous = self.service.classifier
        self.service.classifier = self.swap_to
        self.swap_to = previous
        self.gw.swap_models(classifier=self.service.classifier)


INDEX = st.integers(0, 63)
STEP = st.one_of(
    st.tuples(st.just("suggest"), INDEX),
    st.tuples(st.just("assign"), INDEX, INDEX),
    st.tuples(st.just("custom"), INDEX),
    st.tuples(st.just("override"), INDEX, INDEX),
    st.tuples(st.just("review"),
              st.sampled_from(["accept", "escalate", "override"])),
    st.tuples(st.just("intake"), INDEX),
    st.tuples(st.just("first_node"), INDEX),
    st.tuples(st.just("last_node")),
    st.tuples(st.just("swap")),
)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(steps=st.lists(STEP, min_size=3, max_size=12))
@example(steps=[("intake", 0), ("suggest", 12), ("assign", 0, 1),
                ("suggest", 12), ("first_node", 0), ("assign", 0, 2),
                ("last_node",), ("suggest", 12), ("swap",),
                ("custom", 1), ("override", 2, 0), ("review", "accept")])
def test_gateway_answers_equal_the_bare_service(trained, steps):
    system = System(trained)
    try:
        system.check_all()
        for name, *args in steps:
            if name == "suggest":
                system.check(system.refs[args[0] % len(system.refs)])
                continue
            if name in ("assign", "custom", "override"):
                args[0] = system.refs[args[0] % len(system.refs)]
            getattr(system, name)(*args)
            system.check_all()
    finally:
        system.gw.stop(grace=2.0)


def test_memo_survives_a_write_to_another_part(trained):
    """The point of per-part memos: a decision on one part leaves another
    part's memoized recommendation standing."""
    system = System(trained)
    gw = system.gw
    try:
        target = system.refs[0]
        other = next(ref for ref in system.refs
                     if system.parts[ref] != system.parts[target])
        system.check(target)
        hits = gw.stats_snapshot()["memo_hits"]
        system.assign(other, 0)
        system.check(target)
        assert gw.stats_snapshot()["memo_hits"] == hits + 1
        system.assign(target, 0)
        system.check(target)
        assert gw.stats_snapshot()["memo_hits"] == hits + 1
    finally:
        gw.stop(grace=2.0)


def test_unknown_part_re_ranks_after_a_write_to_any_part(trained):
    """A bundle of an untrained part is ranked against every part (the
    Fig. 5 fallback), so its entry is keyed by the whole view and a write
    to any part must re-rank it."""
    system = System(trained)
    try:
        source = system.refs[0]
        copy = system.intake(0)  # the source's text, untrained part
        system.check(copy)
        before = system.expected(copy)
        system.assign(source, 0)
        assert system.expected(copy) != before
        system.check(copy)
    finally:
        system.gw.stop(grace=2.0)


def test_assign_drops_its_own_bundle(trained):
    """The memoized bundle of an assigned ref carries the old error code;
    the next suggest must load the assigned one."""
    system = System(trained)
    gw, target = system.gw, system.refs[0]
    code = system.codes(target)[0]
    try:
        assert gw.suggest(target).bundle.error_code is None
        system.assign(target, 0)
        assert gw.suggest(target).bundle.error_code == code
    finally:
        gw.stop(grace=2.0)


@pytest.mark.parametrize("when", ["before", "after"])
def test_assign_mid_batch_on_the_same_part(trained, when):
    """A write to the ref's part lands while its batch ranks it: before
    the ranking (the answer is ranked on the new view but memoized under
    the old stamp) or after it (ranked on the old view).  Either way the
    next suggest must re-rank and equal the bare service."""
    system = System(trained)
    gw, target = system.gw, system.refs[0]
    code = system.codes(target)[0]
    before = system.expected(target)
    classify = gw._classify_one
    ranked: list[str] = []

    def interleaved(snapshot, bundle, features):
        ranked.append(bundle.ref_no)
        if len(ranked) > 1:
            return classify(snapshot, bundle, features)
        if when == "before":
            gw.assign(ENGINEER, target, code)
            return classify(snapshot, bundle, features)
        recommendation = classify(snapshot, bundle, features)
        gw.assign(ENGINEER, target, code)
        return recommendation

    gw._classify_one = interleaved
    try:
        gw.suggest(target)
        after = system.expected(target)
        assert after != before  # the write changed the ranked list
        assert ranked_bytes(gw.suggest(target)) == after
        assert ranked == [target, target]  # re-ranked, not a memo hit
    finally:
        gw.stop(grace=2.0)


def test_bundle_load_racing_an_assign_stays_out_of_the_memo(trained):
    """The batch loads a bundle in a read view that predates an assign of
    it; the assign's drop comes first, so the stale bundle must not go
    back into the memo."""
    system = System(trained)
    gw, service, target = system.gw, system.service, system.refs[0]
    code = system.codes(target)[0]
    load = service.bundle
    raced = []

    def racing(ref_no):
        bundle = load(ref_no)
        if ref_no == target and not raced:
            raced.append(ref_no)
            writer = threading.Thread(target=gw.assign,
                                      args=(ENGINEER, target, code))
            writer.start()
            writer.join()
        return bundle

    service.bundle = racing
    try:
        assert gw.suggest(target).bundle.error_code is None
        assert raced
        assert gw.suggest(target).bundle.error_code == code
    finally:
        gw.stop(grace=2.0)


def test_code_list_load_racing_a_custom_code_stays_out_of_the_memo(trained):
    system = System(trained)
    gw, service, target = system.gw, system.service, system.refs[0]
    part = system.parts[target]
    custom_codes = service.custom_codes
    raced = []

    def racing(part_id=None):
        rows = custom_codes(part_id)
        if part_id == part and not raced:
            raced.append(part_id)
            writer = threading.Thread(
                target=gw.define_error_code,
                args=(ENGINEER, "X-RACE", part, "raced"))
            writer.start()
            writer.join()
        return rows

    service.custom_codes = racing
    try:
        assert "X-RACE" not in gw.suggest(target).all_codes
        assert raced
        system.check(target)
        assert "X-RACE" in gw.suggest(target).all_codes
    finally:
        gw.stop(grace=2.0)


def test_concurrent_reads_and_writes_settle_on_the_bare_service(trained):
    """Stress: more workers than cores and a short switch interval, with
    clients reading while a writer assigns and defines codes.  Once the
    writes stop, every gateway answer equals the bare service: a memo
    entry stored from a load or ranking that a write overtook would
    show here."""
    system = System(trained, workers=4)
    gw, refs = system.gw, list(system.refs)
    stop, errors, served = threading.Event(), [], []

    def reader(offset: int) -> None:
        for count in itertools.count(offset):
            if stop.is_set():
                return
            try:
                gw.suggest(refs[count % len(refs)])
                served.append(count)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

    readers = [threading.Thread(target=reader, args=(offset,))
               for offset in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers:
            thread.start()
        for step, ref in enumerate(refs * 4):
            system.assign(ref, step)
            if step % 5 == 0:
                system.custom(ref)
            stop.wait(0.002)  # let the readers in between writes
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=30.0)
        sys.setswitchinterval(interval)
    try:
        assert not any(thread.is_alive() for thread in readers)
        assert not errors, errors
        assert len(served) > len(refs) * 4
        system.check_all()
    finally:
        gw.stop(grace=2.0)
