"""The degeneracy-word calculus and canonical forms."""

import pytest
from hypothesis import given, strategies as st

from simphom.simplex import (
    SimplexRef,
    compose_words,
    face_word_rewrite,
    insert_degeneracy,
)
from simphom.sset import std_simplex

from reference import all_simplices


def test_insert_degeneracy_examples():
    # s_0 s_0 = s_1 s_0
    assert insert_degeneracy((0,), 0) == (1, 0)
    # s_2 on top of s_1 stays decreasing
    assert insert_degeneracy((1,), 2) == (2, 1)
    assert insert_degeneracy((), 0) == (0,)
    # s_1 s_2 = s_3 s_1
    assert insert_degeneracy((2,), 1) == (3, 1)


def test_face_word_rewrite_cancellation():
    # d_0 s_0 = id, d_1 s_0 = id
    assert face_word_rewrite((0,), 0) == ((), None)
    assert face_word_rewrite((0,), 1) == ((), None)
    # d_0 s_1 = s_0 d_0
    assert face_word_rewrite((1,), 0) == ((0,), 0)
    # d_3 s_1 = s_1 d_2
    assert face_word_rewrite((1,), 3) == ((1,), 2)


@st.composite
def canonical_words(draw, max_len=4, max_base_dim=4):
    base_dim = draw(st.integers(0, max_base_dim))
    length = draw(st.integers(0, max_len))
    word = ()
    for _ in range(length):
        dim = base_dim + len(word)
        word = insert_degeneracy(word, draw(st.integers(0, dim)))
    return base_dim, word


@given(canonical_words(), st.data())
def test_insert_keeps_canonical(bw, data):
    base_dim, word = bw
    ref = SimplexRef(base_dim, 0, word)
    assert ref.words_ok()
    i = data.draw(st.integers(0, ref.dim))
    new = insert_degeneracy(word, i)
    assert SimplexRef(base_dim, 0, new).words_ok()
    assert len(new) == len(word) + 1


@given(canonical_words(), st.data())
def test_face_rewrite_keeps_canonical(bw, data):
    base_dim, word = bw
    ref = SimplexRef(base_dim, 0, word)
    if ref.dim == 0:
        return
    i = data.draw(st.integers(0, ref.dim))
    out, residual = face_word_rewrite(word, i)
    if residual is None:
        assert SimplexRef(base_dim, 0, out).words_ok()
        assert len(out) == len(word) - 1
    else:
        assert 0 <= residual <= base_dim
        assert SimplexRef(base_dim - 1, 0, compose_words(out, ())).words_ok()


@given(canonical_words(max_len=3, max_base_dim=3), canonical_words(max_len=3, max_base_dim=3))
def test_compose_words_canonical(a, b):
    base_dim, inner = b
    _, outer_raw = a
    # reinterpret outer over the top of inner: clamp indices into range
    word = inner
    for j in reversed(outer_raw):
        word = insert_degeneracy(word, min(j, base_dim + len(word)))
    assert SimplexRef(base_dim, 0, word).words_ok()


def test_simplicial_identities_on_arbitrary_refs():
    """d_i d_j = d_{j-1} d_i (i < j) for every 3-simplex of Delta[2],
    degenerate ones included."""
    space = std_simplex(2)
    for ref in all_simplices(space, 3):
        for j in range(1, 4):
            for i in range(j):
                assert space.face(space.face(ref, j), i) == \
                    space.face(space.face(ref, i), j - 1)


def test_degeneracy_face_interchange():
    """d_i s_i = id = d_{i+1} s_i on arbitrary simplices."""
    space = std_simplex(3)
    for n in range(3):
        for ref in all_simplices(space, n):
            for i in range(n + 1):
                up = space.degeneracy(ref, i)
                assert space.face(up, i) == ref
                assert space.face(up, i + 1) == ref


def test_ref_validation():
    assert SimplexRef(1, 0, (1, 0)).words_ok()
    assert not SimplexRef(1, 0, (0, 1)).words_ok()   # not decreasing
    assert not SimplexRef(0, 0, (5,)).words_ok()     # out of range
    assert not SimplexRef(1, 0, (1, 1)).words_ok()   # repeated


def test_spec_face_examples():
    d2 = std_simplex(2)
    # the middle face of the top cell is the long edge
    top = SimplexRef(2, 0)
    mid = d2.face(top, 1)
    assert d2.gen(mid.base_dim, mid.base_id).label == "02" and not mid.is_degenerate

    d1 = std_simplex(1)
    e = SimplexRef(1, 0)
    # d_0 s_0 e = e
    assert d1.face(d1.degeneracy(e, 0), 0) == e
    # d_0 s_1 e = s_0 d_0 e = s_0 (vertex 1)
    s1e = d1.degeneracy(e, 1)
    v1 = d1.face(e, 0)
    assert d1.face(s1e, 0) == d1.degeneracy(v1, 0)


def test_spec_degeneracy_examples():
    d1 = std_simplex(1)
    e = SimplexRef(1, 0)
    assert d1.degeneracy(e, 0) == SimplexRef(1, 0, (0,))
    v = SimplexRef(0, 0)
    s0v = d1.degeneracy(v, 0)
    assert d1.degeneracy(s0v, 0) == SimplexRef(0, 0, (1, 0))
    s1e = d1.degeneracy(e, 1)
    assert d1.degeneracy(s1e, 2) == SimplexRef(1, 0, (2, 1))


def test_face_errors():
    d1 = std_simplex(1)
    with pytest.raises(ValueError):
        d1.face(SimplexRef(0, 0), 0)
    with pytest.raises(ValueError):
        d1.face(SimplexRef(1, 0), 2)
    with pytest.raises(ValueError):
        d1.degeneracy(SimplexRef(1, 0), 5)


def test_simplex_ref_is_a_tuple_of_its_fields():
    """Hash, order, repr, the default word and immutability of a ref."""
    ref = SimplexRef(2, 5, (1, 0))
    assert hash(ref) == hash((2, 5, (1, 0)))
    assert SimplexRef(1, 3).degens == ()
    assert hash(SimplexRef(1, 3)) == hash((1, 3, ()))
    refs = [SimplexRef(1, 0, (0,)), SimplexRef(0, 2), SimplexRef(1, 0), SimplexRef(0, 10),
            SimplexRef(1, 0, (1,)), SimplexRef(0, 2, (1, 0))]
    assert sorted(refs) == [SimplexRef(0, 2), SimplexRef(0, 2, (1, 0)), SimplexRef(0, 10),
                            SimplexRef(1, 0), SimplexRef(1, 0, (0,)), SimplexRef(1, 0, (1,))]
    assert repr(SimplexRef(1, 3)) == "<1.3>"
    assert repr(ref) == "s1 s0 <2.5>"
    assert ref.dim == 4 and ref.is_degenerate and not SimplexRef(1, 3).is_degenerate
    with pytest.raises(AttributeError):
        ref.base_id = 6
    with pytest.raises(AttributeError):
        ref.extra = 1
