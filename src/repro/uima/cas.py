"""The Common Analysis Structure (CAS).

Mirrors the architectural role UIMA's CAS plays in the paper (§4.5.2): one
CAS holds one *data bundle* — the concatenated report texts plus structured
metadata (part ID, error code) — and is handed from one analysis engine to
the next, so later annotators can build on earlier findings.

Annotations are typed feature structures with ``begin``/``end`` character
offsets relative to the document text.  A small declared type system keeps
annotators honest about the types and features they produce.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from .errors import AnnotationError, TypeSystemError


@dataclass(frozen=True)
class TypeDescriptor:
    """Declares one annotation type and the features it may carry."""

    name: str
    features: frozenset[str] = frozenset()
    description: str = ""

    def validate_features(self, features: Iterable[str]) -> None:
        """Raise if *features* (a feature mapping or a collection of feature
        names) uses an undeclared feature name."""
        undeclared = set(features) - self.features
        if undeclared:
            raise TypeSystemError(
                f"type {self.name!r} has no features {sorted(undeclared)}; "
                f"declared: {sorted(self.features)}")


class TypeSystem:
    """A registry of :class:`TypeDescriptor` objects."""

    def __init__(self, types: Iterable[TypeDescriptor] = ()) -> None:
        self._types: dict[str, TypeDescriptor] = {}
        for descriptor in types:
            self.declare(descriptor)

    def declare(self, descriptor: TypeDescriptor) -> TypeDescriptor:
        """Register a type; re-declaring an identical descriptor is a no-op.

        Raises:
            TypeSystemError: if a different descriptor with the same name
                already exists.
        """
        existing = self._types.get(descriptor.name)
        if existing is not None and existing != descriptor:
            raise TypeSystemError(f"conflicting redeclaration of type {descriptor.name!r}")
        self._types[descriptor.name] = descriptor
        return descriptor

    def get(self, name: str) -> TypeDescriptor:
        """Return the descriptor for *name*.

        Raises:
            TypeSystemError: if the type is undeclared.
        """
        try:
            return self._types[name]
        except KeyError:
            raise TypeSystemError(
                f"undeclared annotation type {name!r}; declared: {sorted(self._types)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def type_names(self) -> list[str]:
        """Sorted names of all declared types."""
        return sorted(self._types)


def default_type_system() -> TypeSystem:
    """The QATK type system: tokens, languages, concept mentions, sections."""
    return TypeSystem([
        TypeDescriptor("Token", frozenset({"normalized"}),
                       "One whitespace/punctuation-delimited word."),
        TypeDescriptor("Language", frozenset({"language", "confidence"}),
                       "Detected language of a document span."),
        TypeDescriptor("ConceptMention", frozenset(
            {"concept_id", "category", "language", "matched", "canonical"}),
            "A taxonomy concept occurring in the text (§4.5.3)."),
        TypeDescriptor("Section", frozenset({"source"}),
                       "One report inside the concatenated bundle document."),
    ])


@dataclass
class Annotation:
    """A typed feature structure anchored to a text span.

    Attributes:
        type_name: the declared annotation type.
        begin: inclusive start offset into the CAS document text.
        end: exclusive end offset.
        features: feature name -> value mapping.
    """

    type_name: str
    begin: int
    end: int
    features: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.begin < 0 or self.end < self.begin:
            raise AnnotationError(
                f"invalid span [{self.begin}, {self.end}) for {self.type_name}")

    @property
    def span(self) -> tuple[int, int]:
        """The (begin, end) offsets."""
        return (self.begin, self.end)

    def __len__(self) -> int:
        return self.end - self.begin

    def covers(self, other: "Annotation") -> bool:
        """Whether this annotation's span fully encloses *other*'s."""
        return self.begin <= other.begin and other.end <= self.end

    def overlaps(self, other: "Annotation") -> bool:
        """Whether the two spans share at least one character."""
        return self.begin < other.end and other.begin < self.end


class CAS:
    """One analysis subject: document text, metadata and typed annotations."""

    def __init__(self, document_text: str = "",
                 type_system: TypeSystem | None = None) -> None:
        self._document_text = document_text
        self.type_system = type_system if type_system is not None else default_type_system()
        self.metadata: dict[str, Any] = {}
        self._annotations: dict[str, list[Annotation]] = {}
        self._sort_keys: dict[str, list[tuple[int, int]]] = {}

    # ------------------------------------------------------------------ #
    # document text

    @property
    def document_text(self) -> str:
        """The analysed text.  Immutable once annotations exist."""
        return self._document_text

    def set_document_text(self, text: str) -> None:
        """Set the text; only allowed while the CAS has no annotations.

        Raises:
            AnnotationError: if annotations already reference the old text.
        """
        if any(self._annotations.values()):
            raise AnnotationError("cannot replace document text once annotated")
        self._document_text = text

    def covered_text(self, annotation: Annotation) -> str:
        """The substring of the document covered by *annotation*."""
        return self._document_text[annotation.begin:annotation.end]

    # ------------------------------------------------------------------ #
    # annotations

    def add(self, annotation: Annotation) -> Annotation:
        """Add an annotation, validating type, features and offsets.

        Annotations are kept sorted by (begin, end) per type.

        Raises:
            TypeSystemError: undeclared type or feature.
            AnnotationError: span outside the document text.
        """
        descriptor = self.type_system.get(annotation.type_name)
        descriptor.validate_features(annotation.features)
        if annotation.end > len(self._document_text):
            raise AnnotationError(
                f"span [{annotation.begin}, {annotation.end}) exceeds document "
                f"length {len(self._document_text)}")
        bucket = self._annotations.setdefault(annotation.type_name, [])
        keys = self._sort_keys.setdefault(annotation.type_name, [])
        position = bisect.bisect_right(keys, annotation.span)
        keys.insert(position, annotation.span)
        bucket.insert(position, annotation)
        return annotation

    def add_sorted(self, annotations: Sequence[Annotation]) -> None:
        """Append annotations of one type that arrive in (begin, end) order.

        The bulk form of :meth:`add` for an engine that emits its
        annotations in text order (the tokenizer): the type and the
        feature names are checked once per call, the order and the
        document bounds in one pass, and a batch that starts at or after
        the last annotation of its type is appended without a search.
        A batch that would interleave with existing annotations of its
        type is inserted one by one, as repeated :meth:`add` calls would
        place it.  Nothing is added when the batch is refused.

        Raises:
            TypeSystemError: undeclared type or feature, or annotations
                of more than one type.
            AnnotationError: a span outside the document text, or a
                batch not in (begin, end) order.
        """
        if not annotations:
            return
        type_name = annotations[0].type_name
        descriptor = self.type_system.get(type_name)
        limit = len(self._document_text)
        keys: list[tuple[int, int]] = []
        previous = (0, 0)
        for annotation in annotations:
            key = (annotation.begin, annotation.end)
            if annotation.type_name != type_name:
                raise TypeSystemError(
                    f"one batch holds types {type_name!r} and "
                    f"{annotation.type_name!r}")
            if key[1] > limit:
                raise AnnotationError(
                    f"span [{key[0]}, {key[1]}) exceeds document length "
                    f"{limit}")
            if key < previous:
                raise AnnotationError(
                    f"span [{key[0]}, {key[1]}) follows "
                    f"[{previous[0]}, {previous[1]}): batch not in text order")
            keys.append(key)
            previous = key
        descriptor.validate_features(
            set().union(*[annotation.features for annotation in annotations]))
        bucket = self._annotations.setdefault(type_name, [])
        existing = self._sort_keys.setdefault(type_name, [])
        if not existing or existing[-1] <= keys[0]:
            existing.extend(keys)
            bucket.extend(annotations)
            return
        for key, annotation in zip(keys, annotations):
            position = bisect.bisect_right(existing, key)
            existing.insert(position, key)
            bucket.insert(position, annotation)

    def annotate(self, type_name: str, begin: int, end: int,
                 **features: Any) -> Annotation:
        """Convenience wrapper building and adding an :class:`Annotation`."""
        return self.add(Annotation(type_name, begin, end, features))

    def select(self, type_name: str) -> list[Annotation]:
        """All annotations of *type_name* in text order.

        Raises:
            TypeSystemError: if the type is undeclared.
        """
        self.type_system.get(type_name)
        return list(self._annotations.get(type_name, ()))

    def select_covered(self, type_name: str, cover: Annotation) -> list[Annotation]:
        """Annotations of *type_name* fully inside *cover*'s span."""
        return [annotation for annotation in self.select(type_name)
                if cover.covers(annotation)]

    def select_overlapping(self, type_name: str, cover: Annotation) -> list[Annotation]:
        """Annotations of *type_name* overlapping *cover*'s span."""
        return [annotation for annotation in self.select(type_name)
                if cover.overlaps(annotation)]

    def remove(self, annotation: Annotation) -> None:
        """Remove one previously added annotation.

        Raises:
            AnnotationError: if it is not in this CAS.
        """
        bucket = self._annotations.get(annotation.type_name, [])
        try:
            position = bucket.index(annotation)
        except ValueError:
            raise AnnotationError("annotation not in this CAS") from None
        del bucket[position]
        del self._sort_keys[annotation.type_name][position]

    def remove_all(self, type_name: str) -> int:
        """Remove every annotation of *type_name*; returns the count."""
        bucket = self._annotations.pop(type_name, [])
        self._sort_keys.pop(type_name, None)
        return len(bucket)

    def annotation_count(self, type_name: str | None = None) -> int:
        """Number of annotations of one type, or of all types."""
        if type_name is not None:
            return len(self._annotations.get(type_name, ()))
        return sum(len(bucket) for bucket in self._annotations.values())

    def iter_all(self) -> Iterator[Annotation]:
        """Iterate over every annotation, grouped by type, in text order."""
        for type_name in sorted(self._annotations):
            yield from self._annotations[type_name]

    def __repr__(self) -> str:
        return (f"<CAS text={len(self._document_text)} chars, "
                f"annotations={self.annotation_count()}>")
