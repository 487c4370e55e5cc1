"""Messages and their bit-size accounting.

The CONGEST model allows one ``B = O(log n)``-bit message per edge per
round.  To make that budget *measurable* rather than aspirational, every
message payload is a flat tuple whose first element is a short string
tag (the message kind) followed by integer fields; the accounting model
charges

* a constant ``TAG_BITS`` for the kind (protocols use a constant number
  of kinds), and
* one *word* of ``ceil(log2(n+1))`` bits per integer field (every
  quantity our algorithms ship — node ids, path positions, cycle sizes,
  round numbers — is at most polynomial in n, so O(log n) bits each).

The simulator checks each message against the edge budget at send time.
"""

from __future__ import annotations

__all__ = ["Message", "TAG_BITS", "word_bits", "payload_words", "payload_bits"]

TAG_BITS = 8


def word_bits(n: int) -> int:
    """Bits per integer field in an ``n``-node network: ``ceil(log2(n+1))``."""
    if n <= 0:
        return 1
    return max(1, (n).bit_length())


def payload_words(payload: tuple) -> int:
    """Number of integer words in a payload (excluding the kind tag)."""
    return len(payload) - 1


def payload_bits(payload: tuple, n: int) -> int:
    """Total bit size of a payload in an ``n``-node network."""
    return TAG_BITS + payload_words(payload) * word_bits(n)


class Message(tuple):
    """A single CONGEST message: the immutable pair ``(sender, payload)``.

    Attributes
    ----------
    sender:
        Node id of the sender (learned by the receiver from the port the
        message arrived on, so it is metadata, not charged bandwidth).
    payload:
        ``(kind, *int_fields)`` — see module docstring.

    A ``tuple`` subclass rather than a dataclass because the simulator
    builds one per delivered message: ``tuple.__new__(Message, (src,
    payload))`` costs about half a frozen slots dataclass.  Equality,
    hashing and ordering are the tuple's; attribute assignment raises.
    """

    __slots__ = ()

    def __new__(cls, sender: int, payload: tuple) -> "Message":
        return tuple.__new__(cls, (sender, payload))

    @property
    def sender(self) -> int:
        return self[0]

    @property
    def payload(self) -> tuple:
        return self[1]

    @property
    def kind(self) -> str:
        """The message kind tag (first payload element)."""
        return self[1][0]

    def bits(self, n: int) -> int:
        """Bit size of this message in an ``n``-node network."""
        return payload_bits(self[1], n)

    def __repr__(self) -> str:
        return f"Message(sender={self[0]!r}, payload={self[1]!r})"

    def __getnewargs__(self) -> tuple:
        return (self[0], self[1])
