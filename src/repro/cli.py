"""Command-line interface for the QUEST/QATK reproduction.

Subcommands::

    python -m repro stats                 # §3.2 corpus statistics
    python -m repro exp1 [--folds N]      # Fig. 11 (Experiment 1)
    python -m repro exp2 SOURCE [--folds N]  # Fig. 12/13
    python -m repro compare [--top N]     # Fig. 14 distributions
    python -m repro annotators            # §4.5.3 coverage comparison
    python -m repro serve [--port P]      # run the QUEST web app
    python -m repro review                # triage demo: the review queue
    python -m repro override [--ref R]    # triage demo: pin an error code
    python -m repro recover DIR           # crash-recover a database dir

``fieldstudy`` and ``serve`` accept ``--on-error={fail_fast,skip,quarantine}``
to pick the pipeline's degradation policy (see DESIGN.md, "Durability &
failure semantics").

All subcommands operate on the default seeded corpus, so output is
reproducible.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .data import ReportSource, generate_complaints, generate_corpus
from .evaluate import (ExperimentConfig, experiment_subset,
                       run_candidate_set_baseline, run_experiments,
                       run_frequency_baseline)
from .taxonomy import (ConceptAnnotator, LegacyConceptAnnotator,
                       annotator_coverage)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QUEST/QATK reproduction of Kassner & Mitschang, EDBT 2016")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("stats", help="corpus statistics (§3.2)")

    exp1 = commands.add_parser("exp1", help="Experiment 1 / Fig. 11")
    exp1.add_argument("--folds", type=int, default=5)

    exp2 = commands.add_parser("exp2", help="Experiment 2 / Fig. 12-13")
    exp2.add_argument("source", choices=["mechanic", "supplier"])
    exp2.add_argument("--folds", type=int, default=5)

    compare = commands.add_parser("compare", help="source comparison / Fig. 14")
    compare.add_argument("--top", type=int, default=3)

    commands.add_parser("annotators", help="annotator coverage (§4.5.3)")

    def add_on_error(command) -> None:
        command.add_argument(
            "--on-error", choices=["fail_fast", "skip", "quarantine"],
            default="fail_fast", dest="on_error",
            help="pipeline error policy: fail_fast (default) aborts on the "
                 "first broken bundle, skip drops it, quarantine drops it "
                 "and reports every failure at the end")

    fieldstudy = commands.add_parser(
        "fieldstudy", help="simulated field study of the QUEST UI (§6)")
    fieldstudy.add_argument("--sessions", type=int, default=200)
    add_on_error(fieldstudy)

    extend = commands.add_parser(
        "extend", help="mine taxonomy-extension proposals from the corpus")
    extend.add_argument("--top", type=int, default=20)

    serve = commands.add_parser(
        "serve", help="run the QUEST web app behind the serving gateway")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--train", type=int, default=2000,
                       help="bundles used to train the demo knowledge base")
    serve.add_argument("--workers", type=int, default=2,
                       help="gateway worker threads")
    serve.add_argument("--max-queue", type=int, default=64, dest="max_queue",
                       help="admission-control bound; excess requests get 503")
    serve.add_argument("--batch-size", type=int, default=16,
                       dest="batch_size",
                       help="micro-batcher: max coalesced requests per batch")
    serve.add_argument("--batch-wait-ms", type=float, default=2.0,
                       dest="batch_wait_ms",
                       help="micro-batcher: max wait for stragglers (ms)")
    serve.add_argument("--timeout", type=float, default=10.0,
                       help="per-request deadline in seconds (504 past it)")
    serve.add_argument("--keepalive-idle-timeout", type=float, default=30.0,
                       dest="keepalive_idle_timeout",
                       help="seconds a keep-alive connection may idle "
                            "between requests before the server closes it")
    serve.add_argument("--transport", choices=["thread", "async"],
                       default="thread",
                       help="HTTP transport: 'thread' (one handler "
                            "thread per connection) or 'async' (single "
                            "event loop; thousands of idle keep-alive "
                            "connections at near-zero cost)")
    serve.add_argument("--header-timeout", type=float, default=10.0,
                       dest="header_timeout",
                       help="seconds a client gets to finish sending a "
                            "request's line + headers once the first "
                            "byte arrives (slowloris shed deadline)")
    serve.add_argument("--keepalive-max-requests", type=int, default=1000,
                       dest="keepalive_max_requests",
                       help="requests served per keep-alive connection "
                            "before the server sends Connection: close")
    add_on_error(serve)

    review = commands.add_parser(
        "review",
        help="demo the triage review queue: classify unlabeled bundles and "
             "print the weakest suggestions first")
    review.add_argument("--train", type=int, default=2000,
                        help="bundles used to train the demo knowledge base")
    review.add_argument("--incoming", type=int, default=50,
                        help="unlabeled bundles classified for triage")
    review.add_argument("--threshold", type=float, default=None,
                        help="review threshold: suggestions below this "
                             "confidence are queued (default: the service's)")
    review.add_argument("--limit", type=int, default=20,
                        help="queue entries printed")

    override = commands.add_parser(
        "override",
        help="demo a triage override: pin an error code on one bundle and "
             "show the pinned re-suggest")
    override.add_argument("--train", type=int, default=2000,
                          help="bundles used to train the demo knowledge base")
    override.add_argument("--incoming", type=int, default=50,
                          help="unlabeled bundles registered in the demo")
    override.add_argument("--ref", default=None,
                          help="reference number to pin (default: the first "
                               "unlabeled bundle)")
    override.add_argument("--code", default=None,
                          help="error code to pin (default: the runner-up "
                               "suggestion, so the pin visibly changes the "
                               "answer)")
    override.add_argument("--reason", default="demo override",
                          help="reason recorded with the override")

    recover = commands.add_parser(
        "recover",
        help="recover a crash-damaged database directory (WAL replay + "
             "quarantine of corrupt rows)")
    recover.add_argument("directory", help="the database directory")
    recover.add_argument("--checkpoint", action="store_true",
                         help="write a fresh snapshot after recovery, "
                              "folding the WAL back in")
    return parser


def _cmd_stats() -> int:
    from .data import corpus_statistics
    corpus = generate_corpus()
    for key, value in corpus_statistics(corpus.bundles).items():
        if isinstance(value, float):
            print(f"{key:<28}{value:>10.1f}")
        else:
            print(f"{key:<28}{value:>10}")
    return 0


def _cmd_exp1(folds: int) -> int:
    corpus = generate_corpus()
    bundles = experiment_subset(corpus.bundles)
    annotator = ConceptAnnotator(taxonomy=corpus.taxonomy)
    print(f"Experiment 1 (Fig. 11), {folds}-fold CV, {len(bundles)} bundles")
    configs = [ExperimentConfig(feature_mode=mode, similarity=similarity,
                                folds=folds)
               for mode, similarity in (("words", "jaccard"),
                                        ("words", "overlap"),
                                        ("concepts", "jaccard"),
                                        ("concepts", "overlap"))]
    for result in run_experiments(bundles, configs, corpus.taxonomy,
                                  annotator):
        print(result.accuracy_row())
    print(run_frequency_baseline(bundles,
                                 ExperimentConfig(folds=folds)).accuracy_row())
    for mode in ("words", "concepts"):
        result = run_candidate_set_baseline(
            bundles, ExperimentConfig(feature_mode=mode, folds=folds),
            corpus.taxonomy, annotator)
        print(result.accuracy_row())
    return 0


def _cmd_exp2(source_name: str, folds: int) -> int:
    corpus = generate_corpus()
    bundles = experiment_subset(corpus.bundles)
    annotator = ConceptAnnotator(taxonomy=corpus.taxonomy)
    source = ReportSource.parse(source_name)
    print(f"Experiment 2 ({source.value} reports only), {folds}-fold CV")
    configs = [ExperimentConfig(feature_mode=mode, similarity=similarity,
                                folds=folds, test_sources=(source,))
               for mode, similarity in (("words", "jaccard"),
                                        ("words", "overlap"),
                                        ("concepts", "jaccard"),
                                        ("concepts", "overlap"))]
    for result in run_experiments(bundles, configs, corpus.taxonomy,
                                  annotator):
        print(result.accuracy_row())
    print(run_frequency_baseline(bundles,
                                 ExperimentConfig(folds=folds)).accuracy_row())
    return 0


def _cmd_compare(top: int) -> int:
    from .classify import RankedKnnClassifier
    from .evaluate import build_extractor
    from .knowledge import KnowledgeBase
    from .quest import compare_sources
    corpus = generate_corpus()
    bundles = experiment_subset(corpus.bundles)
    annotator = ConceptAnnotator(taxonomy=corpus.taxonomy)
    extractor = build_extractor("concepts", corpus.taxonomy, annotator)
    classifier = RankedKnnClassifier(
        KnowledgeBase.from_bundles(bundles, extractor), extractor)
    complaints = generate_complaints(corpus.taxonomy, corpus.plan)
    part_of_code = {code.code: code.part_id
                    for code in corpus.plan.all_codes()}
    part_id = corpus.plan.parts[0].part_id
    internal = [bundle for bundle in bundles if bundle.part_id == part_id]
    public = [complaint for complaint in complaints
              if part_of_code[complaint.planted_code] == part_id]
    view = compare_sources(internal, classifier, public, top_n=top,
                           part_id_of_code=part_of_code)
    for distribution in (view.left, view.right):
        print(f"{distribution.source} (n={distribution.total}):")
        for slice_ in distribution.slices():
            print(f"  {slice_.error_code:<8}{slice_.share:>7.1%}")
    return 0


def _cmd_annotators() -> int:
    corpus = generate_corpus()
    texts = [bundle.document_text(include_part_description=False)
             for bundle in corpus.bundles]
    for name, annotator in (
            ("optimized", ConceptAnnotator(taxonomy=corpus.taxonomy)),
            ("legacy", LegacyConceptAnnotator(taxonomy=corpus.taxonomy))):
        stats = annotator_coverage(annotator, texts)
        print(f"{name:<10} zero-concept bundles: "
              f"{stats['without_concepts']}/{stats['total']}, "
              f"mean mentions {stats['mean_mentions']:.2f}")
    return 0


def _cmd_fieldstudy(sessions: int, on_error: str) -> int:
    from .core import QATK, QatkConfig  # noqa: F811 (local import by design)
    from .quest import simulate_field_study
    corpus = generate_corpus()
    bundles = experiment_subset(corpus.bundles)
    historical, incoming = bundles[:-sessions], bundles[-sessions:]
    for mode in ("words", "concepts"):
        qatk = QATK(corpus.taxonomy, QatkConfig(feature_mode=mode,
                                                error_policy=on_error))
        qatk.train(historical)
        service = qatk.make_service()
        report = simulate_field_study(incoming, qatk.classify,
                                      service.full_code_list)
        print(f"{mode:<10} {report.summary()}")
    return 0


def _cmd_extend(top: int) -> int:
    from .taxonomy import TaxonomyExtender
    corpus = generate_corpus()
    bundles = experiment_subset(corpus.bundles)
    extender = TaxonomyExtender(corpus.taxonomy, min_support=8)
    proposals = extender.mine(bundles)
    print(f"{len(proposals)} proposals mined; top {top}:")
    for proposal in proposals[:top]:
        attachment = corpus.taxonomy.get(proposal.concept_id)
        label = attachment.labels.get("en") or attachment.labels.get("de", "?")
        print(f"  {proposal.kind:<11} {proposal.token!r:<22} -> "
              f"{label!r} (score {proposal.score:.2f}, "
              f"{proposal.support} bundles)")
    return 0


def _cmd_serve(port: int, train: int, on_error: str, workers: int,
               max_queue: int, batch_size: int, batch_wait_ms: float,
               timeout: float, keepalive_idle_timeout: float = 30.0,
               keepalive_max_requests: int = 1000,
               transport: str = "thread",
               header_timeout: float = 10.0) -> int:
    from .core import QATK, QatkConfig
    from .quest import QuestApp, QuestServer, Role, User, UserStore
    from .serve import GatewayConfig, ServeGateway
    from .serve.aio import AsyncQuestServer
    corpus = generate_corpus()
    bundles = experiment_subset(corpus.bundles)
    qatk = QATK(corpus.taxonomy, QatkConfig(feature_mode="words",
                                            error_policy=on_error))
    qatk.train(bundles[:train])
    service = qatk.make_service()
    service.register_bundles([bundle.without_label()
                              for bundle in bundles[train:train + 50]])
    users = UserStore(qatk.database)
    users.add(User("expert", Role.POWER_EXPERT, "Demo Expert"))
    gateway = ServeGateway(service, GatewayConfig(
        workers=workers, max_queue=max_queue, max_batch_size=batch_size,
        max_wait_ms=batch_wait_ms, default_timeout=timeout))
    app = QuestApp(service, users, users.get("expert"), gateway=gateway)
    server_cls = AsyncQuestServer if transport == "async" else QuestServer
    server = server_cls(
        app, port=port, idle_timeout=keepalive_idle_timeout,
        max_requests_per_connection=keepalive_max_requests,
        header_timeout=header_timeout)
    host, bound_port = server.address
    gateway.start()
    print(f"QUEST running on http://{host}:{bound_port}/ "
          f"({transport} transport) — "
          f"{workers} worker(s), queue bound {max_queue}, "
          f"batches up to {batch_size} ({batch_wait_ms:g} ms window); "
          f"Ctrl+C to stop")
    report = None
    try:
        server.start()
        import threading
        threading.Event().wait()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        try:
            report = server.stop()
        except KeyboardInterrupt:
            # second Ctrl+C during the drain: force-quit without the
            # grace period, but still reject queued work with typed
            # errors rather than dropping it
            print("\nforced shutdown")
            report = app.gateway.stop(grace=0.0)
    stats = gateway.stats_snapshot()
    print(report.summary())
    print(f"served {stats['completed']} requests "
          f"({stats['rejected']} shed, {stats['deadline_exceeded']} expired, "
          f"{stats['degraded']} degraded) — "
          f"p50 {stats['p50_ms']:.1f} ms, p95 {stats['p95_ms']:.1f} ms, "
          f"p99 {stats['p99_ms']:.1f} ms, "
          f"mean batch {stats['mean_batch_size']}")
    return 0


def _demo_triage_service(train: int, incoming: int):
    """Build the deterministic triage demo: a trained service with
    *incoming* unlabeled bundles registered.  Returns (service, refs)."""
    from .core import QATK, QatkConfig
    corpus = generate_corpus()
    bundles = experiment_subset(corpus.bundles)
    qatk = QATK(corpus.taxonomy, QatkConfig(feature_mode="words"))
    qatk.train(bundles[:train])
    service = qatk.make_service()
    unlabeled = [bundle.without_label()
                 for bundle in bundles[train:train + incoming]]
    service.register_bundles(unlabeled)
    return service, [bundle.ref_no for bundle in unlabeled]


def _cmd_review(train: int, incoming: int, threshold: float | None,
                limit: int) -> int:
    service, refs = _demo_triage_service(train, incoming)
    if threshold is not None:
        service.review_threshold = threshold
    print(f"classifying {len(refs)} unlabeled bundles "
          f"(review threshold {service.review_threshold:g})")
    for ref_no in refs:
        service.suggest(ref_no)
    counts = service.review_queue.counts()
    print(f"queue: {counts['pending']} pending, {counts['claimed']} claimed, "
          f"{counts['resolved']} resolved")
    for entry in service.pending_reviews(limit=limit):
        print(f"  {entry['ref_no']:<12} part {entry['part_id']:<10} "
              f"confidence {entry['confidence']:.3f}")
    return 0


def _cmd_override(train: int, incoming: int, ref: str | None,
                  code: str | None, reason: str) -> int:
    from .quest import Role, User, UserStore
    service, refs = _demo_triage_service(train, incoming)
    users = UserStore(service.database)
    users.add(User("expert", Role.POWER_EXPERT, "Demo Expert"))
    ref_no = ref or refs[0]
    before = service.suggest(ref_no, persist=False)
    top = before.suggestions.top(3)
    print(f"before: {ref_no} -> "
          + ", ".join(f"{s.error_code} ({s.score:.3f})" for s in top)
          + (f" [confidence {before.confidence.score:.3f}]"
             if before.confidence else ""))
    if code is None:
        # Pin the runner-up (or the winner when there is only one
        # candidate) so the demo visibly changes the served answer.
        code = top[1].error_code if len(top) > 1 else top[0].error_code
    record = service.apply_override(users.get("expert"), ref_no, code, reason)
    print(f"pinned {ref_no} to {code} "
          f"(override #{record['override_id']}, reason: {reason!r})")
    after = service.suggest(ref_no)
    winner = after.suggestions.codes[0].error_code
    print(f"after:  {ref_no} -> {winner} (source={after.source}, "
          f"confidence {after.confidence.score:.3f})")
    return 0


def _cmd_recover(directory: str, do_checkpoint: bool) -> int:
    from .relstore import PersistenceError, recover_database, save_database
    try:
        database, report = recover_database(directory)
    except PersistenceError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    print(report.summary())
    if do_checkpoint:
        save_database(database, directory)
        print("checkpoint written (WAL folded into a fresh snapshot)")
    print("recovery " + ("clean" if report.clean else
                         "completed with findings (see above)"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "stats":
        return _cmd_stats()
    if args.command == "exp1":
        return _cmd_exp1(args.folds)
    if args.command == "exp2":
        return _cmd_exp2(args.source, args.folds)
    if args.command == "compare":
        return _cmd_compare(args.top)
    if args.command == "annotators":
        return _cmd_annotators()
    if args.command == "fieldstudy":
        return _cmd_fieldstudy(args.sessions, args.on_error)
    if args.command == "extend":
        return _cmd_extend(args.top)
    if args.command == "serve":
        return _cmd_serve(
            port=args.port, train=args.train, on_error=args.on_error,
            workers=args.workers, max_queue=args.max_queue,
            batch_size=args.batch_size, batch_wait_ms=args.batch_wait_ms,
            timeout=args.timeout,
            keepalive_idle_timeout=args.keepalive_idle_timeout,
            keepalive_max_requests=args.keepalive_max_requests,
            transport=args.transport, header_timeout=args.header_timeout)
    if args.command == "review":
        return _cmd_review(args.train, args.incoming, args.threshold,
                           args.limit)
    if args.command == "override":
        return _cmd_override(args.train, args.incoming, args.ref, args.code,
                             args.reason)
    if args.command == "recover":
        return _cmd_recover(args.directory, args.checkpoint)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
