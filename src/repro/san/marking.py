"""Markings: the state of a SAN.

A :class:`Marking` maps place names to non-negative token counts.  Gate
predicates and functions receive the marking and read or mutate it through
the mapping interface.  The marking guards against negative token counts,
the most common modeling bug.

:class:`FrozenMarking` is the immutable, hashable counterpart used as the
state key by the reachability-graph generator
(:mod:`repro.san.statespace`): two markings that agree on every nonzero
place freeze to the same key, so zero-padded and sparse representations of
the same state coincide in the state space.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Union

from repro.san.places import Place

PlaceRef = Union[str, Place]


def _name(place: PlaceRef) -> str:
    # Hot path: marking lookups happen on every enabling check, and almost
    # all callers pass plain strings, so test for that first.
    return place if isinstance(place, str) else place.name


class Marking:
    """A mutable mapping from place names to token counts.

    The marking keeps a *change journal*: every place whose token count
    actually changes is recorded until :meth:`consume_changes` is called.
    The SAN executor uses the journal to re-evaluate only the activities
    that could have been affected by a completion, which keeps large
    generated models (hundreds of activities) fast to simulate.
    """

    __slots__ = ("_tokens", "_changed")

    def __init__(self, tokens: Mapping[str, int] | None = None) -> None:
        self._tokens: Dict[str, int] = {}
        self._changed: set[str] = set()
        if tokens:
            for name, count in tokens.items():  # repro: ignore[DET001] copies the caller's mapping; a canonical sorted order is imposed at freeze()
                self[name] = count

    # ------------------------------------------------------------------
    def __getitem__(self, place: PlaceRef) -> int:
        return self._tokens.get(
            place if isinstance(place, str) else place.name, 0
        )

    def __setitem__(self, place: PlaceRef, count: int) -> None:
        name = place if isinstance(place, str) else place.name
        count = int(count)
        if count < 0:
            raise ValueError(
                f"marking of place {name!r} would become negative ({count})"
            )
        if self._tokens.get(name, 0) != count:
            self._changed.add(name)
        self._tokens[name] = count

    # ------------------------------------------------------------------
    def consume_changes(self) -> set[str]:
        """Return the places changed since the last call, and clear the journal."""
        changed = self._changed
        self._changed = set()
        return changed

    def __contains__(self, place: PlaceRef) -> bool:
        return _name(place) in self._tokens

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Marking):
            return self.as_dict(drop_zeros=True) == other.as_dict(drop_zeros=True)
        if isinstance(other, Mapping):
            return self.as_dict(drop_zeros=True) == {
                key: value for key, value in other.items() if value  # repro: ignore[DET001] dict equality is order-insensitive
            }
        return NotImplemented

    # Markings are mutable, so they must not be hashable: the standard
    # idiom (setting ``__hash__`` to ``None``) makes ``hash()`` raise
    # ``TypeError`` and makes ``isinstance(m, collections.abc.Hashable)``
    # correctly report ``False``.  Use :meth:`freeze` to obtain a hashable
    # state key.
    __hash__ = None  # type: ignore[assignment]

    def freeze(self) -> "FrozenMarking":
        """An immutable, hashable snapshot of this marking.

        Markings already guarantee non-negative integer counts, so the
        snapshot skips :class:`FrozenMarking`'s per-item validation -- the
        state-space explorer freezes a marking per reachable state and this
        is its hot path.
        """
        return FrozenMarking._from_clean_tokens(self._tokens)

    # ------------------------------------------------------------------
    def add(self, place: PlaceRef, count: int = 1) -> None:
        """Add ``count`` tokens to ``place``."""
        self[place] = self[place] + count

    def remove(self, place: PlaceRef, count: int = 1) -> None:
        """Remove ``count`` tokens from ``place`` (raising if insufficient)."""
        self[place] = self[place] - count

    def set_all(self, places: Iterable[PlaceRef], count: int) -> None:
        """Set every place in ``places`` to ``count`` tokens."""
        for place in places:
            self[place] = count

    def has(self, place: PlaceRef, count: int = 1) -> bool:
        """``True`` if ``place`` holds at least ``count`` tokens."""
        return self[place] >= count

    def copy(self) -> "Marking":
        """An independent copy of this marking.

        The source marking already enforces the non-negative-integer
        invariant, so the copy clones the token dict directly instead of
        replaying every assignment through ``__setitem__``.  The copy
        starts with an *empty* change journal (a copy has not changed
        anything yet); the executor clears the journal at the start of a
        run anyway, so the two representations are interchangeable there.
        """
        clone = Marking.__new__(Marking)
        clone._tokens = dict(self._tokens)
        clone._changed = set()
        return clone

    def as_dict(self, drop_zeros: bool = False) -> Dict[str, int]:
        """The marking as a plain dictionary."""
        if drop_zeros:
            return {name: count for name, count in self._tokens.items() if count}  # repro: ignore[DET001] deliberately preserves this marking's own insertion order
        return dict(self._tokens)

    def total_tokens(self) -> int:
        """Total number of tokens across all places."""
        return sum(self._tokens.values())

    def __repr__(self) -> str:
        nonzero = {k: v for k, v in sorted(self._tokens.items()) if v}
        return f"Marking({nonzero})"


class FrozenMarking:
    """An immutable, hashable marking: the state key of the state space.

    Only nonzero token counts are stored (in sorted place order), so two
    markings that differ only in explicit zeros freeze to equal keys with
    equal hashes.  The read-only part of the :class:`Marking` interface is
    supported (``[]``, ``in``, iteration, ``has``, ``as_dict``,
    ``total_tokens``), which lets gate predicates and reward rate functions
    that only *read* the marking be evaluated directly on a frozen state.
    """

    __slots__ = ("_items", "_hash", "_lookup")

    def __init__(self, tokens: Mapping[str, int] | None = None) -> None:
        items = []
        for name, count in (tokens or {}).items():  # repro: ignore[DET001] collected items are sorted two lines below
            count = int(count)
            if count < 0:
                raise ValueError(
                    f"marking of place {name!r} cannot be negative ({count})"
                )
            if count:
                items.append((str(name), count))
        self._items: tuple[tuple[str, int], ...] = tuple(sorted(items))
        self._hash = hash(self._items)  # repro: ignore[DET002] in-process memo of the canonical tuple's hash for dict keying; never ordered, persisted, or seeded
        self._lookup: Dict[str, int] | None = None

    @classmethod
    def _from_clean_tokens(cls, tokens: Mapping[str, int]) -> "FrozenMarking":
        """Freeze counts already known to be non-negative ints.

        Internal fast path for :meth:`Marking.freeze`; skips the per-item
        coercion/validation of ``__init__`` (the marking enforced it on
        every write).
        """
        frozen = cls.__new__(cls)
        frozen._items = tuple(sorted(item for item in tokens.items() if item[1]))
        frozen._hash = hash(frozen._items)  # repro: ignore[DET002] same in-process hash memo as __init__
        frozen._lookup = None
        return frozen

    # ------------------------------------------------------------------
    def __getitem__(self, place: PlaceRef) -> int:
        # Built lazily: most frozen markings are pure state keys (hashed and
        # compared, never indexed); the ones gate predicates and reward
        # functions do read are read many times, so the first read builds a
        # dict and later reads are O(1).
        lookup = self._lookup
        if lookup is None:
            lookup = self._lookup = dict(self._items)
        return lookup.get(_name(place), 0)

    def __contains__(self, place: PlaceRef) -> bool:
        lookup = self._lookup
        if lookup is None:
            lookup = self._lookup = dict(self._items)
        return _name(place) in lookup

    def __iter__(self) -> Iterator[str]:
        return iter(name for name, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenMarking):
            return self._items == other._items
        if isinstance(other, (Marking, Mapping)):
            return self.as_dict() == (
                other.as_dict(drop_zeros=True)
                if isinstance(other, Marking)
                else {k: v for k, v in other.items() if v}  # repro: ignore[DET001] dict equality is order-insensitive
            )
        return NotImplemented

    # ------------------------------------------------------------------
    def has(self, place: PlaceRef, count: int = 1) -> bool:
        """``True`` if ``place`` holds at least ``count`` tokens."""
        return self[place] >= count

    def as_dict(self) -> Dict[str, int]:
        """The nonzero token counts as a plain dictionary."""
        return dict(self._items)

    def items(self) -> Iterable[tuple[str, int]]:
        """The nonzero ``(place, count)`` pairs in sorted place order."""
        return self._items

    def total_tokens(self) -> int:
        """Total number of tokens across all places."""
        return sum(count for _, count in self._items)

    def thaw(self) -> Marking:
        """A fresh mutable :class:`Marking` with the same token counts.

        The counts are already clean, so the token dict is built directly;
        the change journal lists every (nonzero) place, exactly as
        assigning each count through ``__setitem__`` would leave it.
        """
        marking = Marking.__new__(Marking)
        marking._tokens = dict(self._items)
        marking._changed = set(marking._tokens)
        return marking

    @staticmethod
    def from_marking(marking: Marking) -> "FrozenMarking":
        """Freeze a mutable marking (equivalent to :meth:`Marking.freeze`)."""
        return marking.freeze()

    def __repr__(self) -> str:
        return f"FrozenMarking({dict(self._items)})"
