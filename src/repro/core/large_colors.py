"""Handling colors from huge color spaces (Appendix D.3).

List-coloring palettes may contain colors from a space of size up to
``exp(n^Θ(1))``, i.e. colors that take far more than ``O(log n)`` bits to
write down.  Appendix D.3 resolves this with per-node approximately universal
hash functions: every node ``v`` picks ``h_v : C -> [n^d]`` and broadcasts its
index once; from then on, whenever a neighbour needs to tell ``v`` about a
color ``ψ`` (its tried color, its adopted color, a color it suggests ``v``
try), it sends ``h_v(ψ)`` instead.  Since no two colors relevant to ``v``'s
neighbourhood collide under ``h_v`` w.h.p. (for ``d >= 6``), the hash values
are a faithful stand-in for the colors.

:class:`ColorHasher` packages this: it auto-detects whether colors are small
enough to send verbatim, performs the one-round setup broadcast when hashing
is needed, and exposes encoding helpers that return
:class:`~repro.congest.message.Message` objects with the correct bit charge.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Hashable, Sequence

from repro.congest.bandwidth import index_message
from repro.congest.message import Message
from repro.congest.network import Network
from repro.core.params import ColoringParameters
from repro.core.problem import ColorSpace
from repro.hashing.universal import ApproximatelyUniversalFamily, UniversalHashFunction
from repro.utils.rng import RngStream

Node = Hashable
Color = Hashable

#: Exponent ``d`` of the hash range ``M = n^d``; Appendix D.3 shows ``d >= 6``
#: suffices for no collision to occur in any 2-neighbourhood w.h.p.
_RANGE_EXPONENT = 6


class ColorHasher:
    """Per-node color encoding for CONGEST messages.

    In *direct* mode (small color spaces) colors are sent verbatim, so a
    node tells its whole neighbourhood one color with one broadcast, and a
    receiver finds the named color by lookup.  In *hashed* mode (huge color
    spaces) each node owns a universal hash function and neighbours address
    colors to it by hash value: one message per receiver, matched by a scan
    of the receiver's palette (:meth:`matching_colors`).
    """

    def __init__(
        self,
        network: Network,
        color_space: ColorSpace,
        params: ColoringParameters,
        rng_stream: RngStream,
    ):
        self.network = network
        self.color_space = color_space
        self.params = params
        self._rng_stream = rng_stream
        # Colors are sent verbatim when they comfortably fit in one message.
        self.mode = "direct" if color_space.fits_in(network.bandwidth_bits) else "hashed"
        self._functions: Dict[Node, UniversalHashFunction] = {}
        if self.mode == "hashed":
            n = max(2, network.number_of_nodes)
            modulus = max(4, n ** _RANGE_EXPONENT)
            self.family = ApproximatelyUniversalFamily(
                color_space_bits=color_space.bits,
                modulus=modulus,
                eps=1.0,
                seed=params.seed,
            )
        else:
            self.family = None

    # ------------------------------------------------------------------- setup
    def setup(self) -> None:
        """Broadcast every node's hash-function index (one round; no-op in direct mode)."""
        if self.mode == "direct":
            return
        indices = {
            v: self.family.sample_index(self._rng_stream.for_node(v, "color-hash"))
            for v in self.network.nodes
        }
        self._functions = {v: self.family.member(indices[v]) for v in self.network.nodes}
        self.network.broadcast(
            {
                v: index_message(indices[v], self.family.family_size, label="color-hash:index")
                for v in self.network.nodes
            },
            label="color-hash:setup",
        )

    # --------------------------------------------------------------- encodings
    def color_bits(self) -> int:
        """Bits charged for one encoded color."""
        if self.mode == "direct":
            return self.color_space.bits
        return self.family.value_bits

    def value_for(self, owner: Node, color: Color) -> Hashable:
        """The representation of ``color`` in messages addressed to ``owner``."""
        if self.mode == "direct":
            return color
        return self._functions[owner](color)

    def encode_for(self, owner: Node, color: Color, label: str = "color") -> Message:
        """Package ``color`` for a message addressed to ``owner``."""
        return Message(content=self.value_for(owner, color), bits=self.color_bits(), label=label)

    def matching_colors(
        self, owner: Node, palette: AbstractSet[Color], received_value: Hashable
    ) -> Sequence[Color]:
        """The colors of ``palette`` that ``received_value`` names for ``owner``.

        The one question every receiver asks of a color message: pruning a
        palette, counting chromatic slack, and finding a dealt color.  In
        direct mode colors travel verbatim, so it is a lookup: the received
        value itself when ``palette`` holds it, else nothing.  In hashed mode
        it scans ``palette``, because a hash collision can name more than one
        color; w.h.p. there is at most one, and returning all of them keeps
        the coloring sound in the (negligible) collision case.
        """
        if self.mode == "direct":
            return (received_value,) if received_value in palette else ()
        function = self._functions[owner]
        return [color for color in palette if function(color) == received_value]
