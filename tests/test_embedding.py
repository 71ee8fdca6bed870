"""Embedding backends and cosine similarity."""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jointqg.embedding import (
    BackendSpec, BagMeanBackend, PrecomputedBackend,
    cosine_similarity, create_backend, embed_tokens,
)
from jointqg.errors import SchemaError

finite_vec = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=2, max_size=6)


def write_table(tmp_path, rows: dict[str, list[float]], dim: int):
    lines = [f"dim {dim}"]
    for tok, vals in rows.items():
        lines.append(tok + "\t" + " ".join(str(v) for v in vals))
    p = tmp_path / "table.tsv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(p)


# ------------------------------------------------------------- backends

def test_bag_mean_single_token_is_its_vector():
    be = BagMeanBackend(dim=16, seed=3)
    v = be.embed_tokens(["alpha"])
    assert np.array_equal(v, be.token_vector("alpha"))
    assert np.array_equal(be.embed_tokens(["alpha", "alpha"]), v)


def test_bag_mean_deterministic_under_seed():
    a = BagMeanBackend(dim=16, seed=3).embed_tokens(["x", "y"])
    b = BagMeanBackend(dim=16, seed=3).embed_tokens(["x", "y"])
    c = BagMeanBackend(dim=16, seed=4).embed_tokens(["x", "y"])
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bag_mean_rejects_empty():
    with pytest.raises(ValueError):
        BagMeanBackend(dim=8).embed_tokens([])


def test_precomputed_mean(tmp_path):
    path = write_table(tmp_path, {"a": [1.0, 0.0], "b": [0.0, 2.0]}, 2)
    be = PrecomputedBackend(path)
    assert np.array_equal(be.embed_tokens(["a"]), [1.0, 0.0])
    assert np.array_equal(be.embed_tokens(["a", "a"]), [1.0, 0.0])
    assert np.allclose(be.embed_tokens(["a", "b"]), [0.5, 1.0])


def test_precomputed_rejects_empty(tmp_path):
    path = write_table(tmp_path, {"a": [1.0, 0.0]}, 2)
    with pytest.raises(ValueError):
        PrecomputedBackend(path).embed_tokens([])


def test_precomputed_miss_uses_unk_row(tmp_path):
    path = write_table(tmp_path, {"a": [1.0, 0.0], "<unk>": [9.0, 9.0]}, 2)
    be = PrecomputedBackend(path)
    assert np.array_equal(be.embed_tokens(["nope"]), [9.0, 9.0])


def test_precomputed_miss_defaults_to_zeros(tmp_path):
    path = write_table(tmp_path, {"a": [1.0, 0.0]}, 2)
    assert np.array_equal(PrecomputedBackend(path).embed_tokens(["nope"]), [0.0, 0.0])


def test_precomputed_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("a\t1 2\n")
    with pytest.raises(SchemaError):
        PrecomputedBackend(str(p))


def test_precomputed_rejects_wrong_width(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("dim 3\na\t1 2\n")
    with pytest.raises(SchemaError):
        PrecomputedBackend(str(p))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_precomputed_rejects_non_finite_values(tmp_path, value):
    # a NaN cosine would rank sentences arbitrarily without any error
    p = tmp_path / "bad.tsv"
    p.write_text(f"dim 2\na\t1 0\nb\t{value} 1\n")
    with pytest.raises(SchemaError, match="bad.tsv:3: non-finite"):
        PrecomputedBackend(str(p))


@pytest.mark.parametrize("text,message", [
    ("dim x\na\t1\n", r"bad\.tsv: bad dimension 'x'"),
    ("dim 0\n", r"bad\.tsv: dimension must be positive"),
    ("dim -2\n", r"bad\.tsv: dimension must be positive"),
    ("dim 2\na\t1 0\nb\t1 two\n", r"bad\.tsv:3: non-numeric vector value"),
    ("dim 2\n", r"bad\.tsv: no vectors"),
    ("dim 2\n\n\n", r"bad\.tsv: no vectors"),
    ("dim 2\nfoo\t1 0\n\nfoo\t0 1\n", r"bad\.tsv:4: repeats token 'foo' of line 2"),
], ids=["dim-not-a-number", "dim-zero", "dim-negative", "non-numeric-value", "header-only",
        "blank-lines-only", "repeated-token"])
def test_precomputed_refuses_a_malformed_table(tmp_path, text, message):
    p = tmp_path / "bad.tsv"
    p.write_text(text)
    with pytest.raises(SchemaError, match=message):
        PrecomputedBackend(str(p))


def test_precomputed_skips_blank_lines(tmp_path):
    p = tmp_path / "gaps.tsv"
    p.write_text("dim 2\n\na\t1 0\n\nb\t0 2\n")
    be = PrecomputedBackend(str(p))
    assert np.array_equal(be.embed_tokens(["a"]), [1.0, 0.0])
    assert np.array_equal(be.embed_tokens(["b"]), [0.0, 2.0])


def test_precomputed_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        PrecomputedBackend(str(tmp_path / "absent.tsv"))


def test_create_backend_dispatch(tmp_path):
    assert isinstance(create_backend(BackendSpec("bag_mean", dim=8)), BagMeanBackend)
    path = write_table(tmp_path, {"a": [1.0]}, 1)
    assert isinstance(create_backend(BackendSpec("precomputed_file", source=path)),
                      PrecomputedBackend)
    with pytest.raises(ValueError):
        create_backend(BackendSpec("nonsense"))


@pytest.mark.parametrize("build,message", [
    (lambda: BackendSpec("precomputed_file").validate(),
     "precomputed_file backend needs a source path"),
    (lambda: BagMeanBackend(dim=0), "dim must be positive"),
], ids=["precomputed-without-source", "bag-mean-dim-0"])
def test_backend_settings_refused_with_a_message(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_embed_tokens_function_dispatches():
    be = BagMeanBackend(dim=8, seed=0)
    assert np.array_equal(embed_tokens(["tok"], be), be.embed_tokens(["tok"]))


# ------------------------------------------------------------- cosine

def test_cosine_self_similarity():
    v = np.array([0.3, -1.2, 4.0])
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_known_value():
    got = cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert got == pytest.approx(0.70710678, abs=1e-8)


def test_cosine_degenerate_flagged():
    val, degenerate = cosine_similarity(np.zeros(3), np.ones(3), return_flag=True)
    assert val == 0.0 and degenerate is True
    val, degenerate = cosine_similarity(np.ones(3), np.ones(3), return_flag=True)
    assert degenerate is False


def test_cosine_dim_mismatch():
    with pytest.raises(ValueError):
        cosine_similarity(np.ones(2), np.ones(3))


@given(finite_vec, finite_vec.map(lambda v: v), st.floats(min_value=1e-3, max_value=1e3))
@example(u=[0.0, 5.49e-13], v=[0.0, 1.0], alpha=2.0)  # u below the 1e-12 cutoff, 2u above
def test_cosine_scale_invariance_and_symmetry(u, v, alpha):
    n = min(len(u), len(v))
    u, v = np.asarray(u[:n]), np.asarray(v[:n])
    assert cosine_similarity(u, v) == cosine_similarity(v, u)
    assert abs(cosine_similarity(u, v)) <= 1 + 1e-12
    # Scaling can carry a norm across the degeneracy cutoff, so invariance
    # holds only where neither side is degenerate; a degenerate side scores 0.
    base, base_flag = cosine_similarity(u, v, return_flag=True)
    scaled, scaled_flag = cosine_similarity(alpha * u, v, return_flag=True)
    for val, flag in ((base, base_flag), (scaled, scaled_flag)):
        if flag:
            assert val == 0.0
    if not (base_flag or scaled_flag):
        assert scaled == pytest.approx(base, abs=1e-9)
