"""Hypothesis strategies shared by the search tests."""

from __future__ import annotations

from hypothesis import strategies as st

from frcodes import make_code
from frcodes.core import packets_from_mask


@st.composite
def small_codes(draw, max_n=9, max_theta=12):
    """A code on up to max_n nodes, one more when a node set is repeated:
    it may have empty nodes, n > theta, one packet, packets on every
    node, or two packets on one holder set."""
    n = draw(st.integers(1, max_n), label="n")
    theta = draw(st.integers(1, max_theta), label="theta")
    full = (1 << theta) - 1
    masks = draw(st.lists(st.integers(0, full), min_size=n, max_size=n), label="masks")
    for j in draw(st.sets(st.integers(0, theta - 1), max_size=2), label="everywhere"):
        masks = [m | 1 << j for m in masks]
    placed = 0
    for m in masks:
        placed |= m
    masks[draw(st.integers(0, n - 1), label="orphans")] |= full & ~placed
    if theta > 1 and draw(st.booleans(), label="twin"):  # packet b gets a's holders
        packet = st.integers(0, theta - 1)
        a, b = draw(st.lists(packet, min_size=2, max_size=2, unique=True), label="twins")
        masks = [m & ~(1 << b) | (m >> a & 1) << b for m in masks]
    if draw(st.booleans(), label="repeat"):
        masks.append(masks[draw(st.integers(0, n - 1), label="copied")])
    return make_code(len(masks), theta, [packets_from_mask(m) for m in masks])
