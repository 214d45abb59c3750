"""Token-sequence trie for fast multiword phrase matching.

§4.5.3: "We represent the taxonomy as a trie data structure, a tree
structure which allows for fast search and retrieval" with "a left-bounded
greedy longest-match approach for mapping text sequences to taxonomy
concepts, eliminating concept matches which are completely enclosed by
other concept matches."

Keys are tuples of normalized tokens; values are arbitrary (the annotator
stores concept metadata).  Duplicate insertions keep the first value so the
mapping is deterministic in taxonomy insertion order.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence


class _Node:
    __slots__ = ("children", "value", "terminal")

    def __init__(self) -> None:
        self.children: dict[str, _Node] = {}
        self.value: Any = None
        self.terminal = False


class TokenTrie:
    """A trie over token sequences with longest-prefix matching."""

    def __init__(self) -> None:
        self._root = _Node()
        self._size = 0

    def __len__(self) -> int:
        """Number of stored phrases."""
        return self._size

    def insert(self, tokens: Sequence[str], value: Any) -> bool:
        """Store *value* under the phrase *tokens*.

        Returns False (and keeps the existing value) if the phrase was
        already present; empty phrases are ignored and return False.
        """
        if not tokens:
            return False
        node = self._root
        for token in tokens:
            node = node.children.setdefault(token, _Node())
        if node.terminal:
            return False
        node.terminal = True
        node.value = value
        self._size += 1
        return True

    def lookup(self, tokens: Sequence[str]) -> Any:
        """Return the value stored for exactly *tokens*, or None."""
        node = self._root
        for token in tokens:
            node = node.children.get(token)
            if node is None:
                return None
        return node.value if node.terminal else None

    def __contains__(self, tokens: Sequence[str]) -> bool:
        node = self._root
        for token in tokens:
            node = node.children.get(token)
            if node is None:
                return False
        return node.terminal

    def longest_match(self, tokens: Sequence[str], start: int = 0) -> tuple[int, Any] | None:
        """Longest phrase starting at *start*; returns (length, value) or None."""
        node = self._root
        best: tuple[int, Any] | None = None
        position = start
        while position < len(tokens):
            node = node.children.get(tokens[position])
            if node is None:
                break
            position += 1
            if node.terminal:
                best = (position - start, node.value)
        return best

    def iter_matches(self, tokens: Sequence[str]) -> Iterator[tuple[int, int, Any]]:
        """Left-bounded greedy scan over *tokens*.

        Yields ``(start, length, value)`` for each match; the scan resumes
        after a match's last token, so matches never overlap and no match
        enclosed by another is emitted.  Only tokens that begin some
        phrase are tried as starts (most tokens of a text begin none).
        """
        first = self._root.children
        resume = 0
        for start in [position for position, token in enumerate(tokens)
                      if token in first]:
            if start < resume:
                continue
            match = self.longest_match(tokens, start)
            if match is not None:
                length, value = match
                yield start, length, value
                resume = start + length

    def iter_phrases(self) -> Iterator[tuple[tuple[str, ...], Any]]:
        """Yield every stored (phrase, value) pair in lexicographic order."""
        def walk(node: _Node, prefix: tuple[str, ...]) -> Iterator[tuple[tuple[str, ...], Any]]:
            if node.terminal:
                yield prefix, node.value
            for token in sorted(node.children):
                yield from walk(node.children[token], prefix + (token,))
        yield from walk(self._root, ())
