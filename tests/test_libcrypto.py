"""reed.libcrypto.mod_exp: libcrypto's constant-time modular exponentiation.

Known answers against Python's pow, operands refused before libcrypto sees
them, every BIGNUM and context freed whether a call succeeds or fails, and
threads that never share a context.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reed import libcrypto
from reed.keygen import RSAKeyPair
from reed.libcrypto import mod_exp


@st.composite
def operands(draw):
    bits = draw(st.integers(512, 2048))
    mod = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
    base = draw(st.one_of(st.sampled_from([0, 1, mod - 1]), st.integers(0, mod - 1),
                          st.integers(mod, mod << 64)))
    exp = draw(st.one_of(st.sampled_from([0, 1]),
                         st.integers(1 << (bits - 1), (1 << bits) - 1)))
    return base, exp, mod


@settings(max_examples=120, deadline=None)
@given(operands())
def test_mod_exp_equals_pow(ops):
    assert mod_exp(*ops) == pow(*ops)


def test_mod_exp_small_odd_moduli():
    for mod in (1, 3, 5, 7, 255):
        for base in range(2 * mod + 1):
            for exp in range(5):
                assert mod_exp(base, exp, mod) == pow(base, exp, mod)


class Untouchable:
    def __getattr__(self, name):
        raise AssertionError(f"libcrypto's {name} was reached")


@pytest.mark.parametrize("ops", [(2, 3, 0), (2, 3, 2), (2, 3, 1 << 1024),
                                 (-2, 3, 7), (2, -3, 7), (2, 3, -7)])
def test_mod_exp_refuses_an_even_modulus_or_a_negative_operand(monkeypatch, ops):
    monkeypatch.setattr(libcrypto, "lib", Untouchable())
    with pytest.raises(ValueError):
        mod_exp(*ops)


REAL = libcrypto.lib


class Ledger:
    """The real libcrypto, counting what mod_exp allocates and frees, with
    one call made to fail."""

    def __init__(self, failing: str, failure):
        self.live_nums = self.live_ctxs = 0
        self.failing, self.failure = failing, failure

    def __getattr__(self, name):
        func = getattr(REAL, name)

        def call(*args):
            if name == self.failing:
                return self.failure
            out = func(*args)
            if name in ("BN_new", "BN_bin2bn") and out:
                self.live_nums += 1
            elif name == "BN_clear_free":
                self.live_nums -= 1
            elif name == "BN_CTX_new" and out:
                self.live_ctxs += 1
            elif name == "BN_CTX_free":
                self.live_ctxs -= 1
            return out
        return call


@pytest.mark.parametrize("failing, failure, raised", [
    ("BN_CTX_new", None, MemoryError),
    ("BN_bin2bn", None, MemoryError),
    ("BN_new", None, MemoryError),
    ("BN_mod_exp_mont_consttime", 0, RuntimeError),
    ("BN_bn2binpad", -1, RuntimeError),
    (None, None, None)])
def test_mod_exp_frees_everything_and_a_failed_call_raises(monkeypatch, failing, failure,
                                                          raised):
    ledger = Ledger(failing, failure)
    monkeypatch.setattr(libcrypto, "lib", ledger)
    if raised is None:
        assert mod_exp(3, 1 << 100, 2**127 - 1) == pow(3, 1 << 100, 2**127 - 1)
    else:
        out = None
        with pytest.raises(raised):
            out = mod_exp(3, 1 << 100, 2**127 - 1)
        assert out is None
    assert ledger.live_nums == ledger.live_ctxs == 0


def test_threads_interleaving_key_pairs_get_their_own_results():
    # ctypes drops the GIL around each foreign call; a switch interval this
    # short makes the two threads' calls interleave inside mod_exp.
    pairs = [RSAKeyPair.generate(), RSAKeyPair.generate()]
    values = [[(7 + 2 * i) ** 40 % pair.n for i in range(60)] for pair in pairs]
    expected = [[pow(v, pair.d, pair.n) for v in vals] for pair, vals in zip(pairs, values)]
    results = [None, None]
    barrier = threading.Barrier(2)

    def run(k):
        barrier.wait()
        results[k] = [pairs[k].raise_to_d(v) for v in values[k]]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected
