"""The libcrypto that CPython's hashlib links, reached through ctypes.

The library is opened through ``_hashlib``'s own handle, so reed uses the
very libcrypto the interpreter already loaded and needs no search of the
system for it. Every call reed makes is declared here once: the EVP cipher
calls behind the CAONT keystreams and the BIGNUM calls behind ``mod_exp``.
A missing ``_hashlib`` or symbol fails the import with an ``ImportError``
that names libcrypto and what is missing.
"""

from __future__ import annotations

import ctypes

_ptr, _int = ctypes.c_void_p, ctypes.c_int
_SIGNATURES = [
    ("EVP_aes_256_ctr", _ptr, []),
    ("EVP_CIPHER_CTX_new", _ptr, []),
    ("EVP_CIPHER_CTX_free", None, [_ptr]),
    ("EVP_EncryptInit_ex", _int, [_ptr, _ptr, _ptr, ctypes.c_char_p, ctypes.c_char_p]),
    ("EVP_EncryptUpdate", _int, [_ptr, _ptr, ctypes.POINTER(_int), ctypes.c_char_p, _int]),
    ("BN_CTX_new", _ptr, []),
    ("BN_CTX_free", None, [_ptr]),
    ("BN_new", _ptr, []),
    ("BN_clear_free", None, [_ptr]),
    ("BN_set_flags", None, [_ptr, _int]),
    ("BN_bin2bn", _ptr, [ctypes.c_char_p, _int, _ptr]),
    ("BN_bn2binpad", _int, [_ptr, _ptr, _int]),
    ("BN_mod_exp_mont_consttime", _int, [_ptr, _ptr, _ptr, _ptr, _ptr, _ptr]),
]
# OpenSSL's own RSA code sets this on its secret exponents and primes, so
# that the Montgomery set-up and any reduction by them run in constant time.
_BN_FLG_CONSTTIME = 0x04


def _load() -> ctypes.CDLL:
    try:
        import _hashlib
    except ImportError as exc:
        raise ImportError("reed needs the libcrypto that CPython's hashlib links, "
                          f"and _hashlib cannot be imported: {exc}") from exc
    try:
        lib = ctypes.CDLL(_hashlib.__file__)
    except OSError as exc:
        raise ImportError(f"reed cannot open libcrypto through {_hashlib.__file__}: "
                          f"{exc}") from exc
    for name, restype, argtypes in _SIGNATURES:
        try:
            func = getattr(lib, name)
        except AttributeError as exc:
            raise ImportError(f"libcrypto linked by {_hashlib.__file__} lacks {name}") from exc
        func.restype, func.argtypes = restype, argtypes
    return lib


lib = _load()


def mod_exp(base: int, exp: int, mod: int) -> int:
    """``base**exp % mod`` by ``BN_mod_exp_mont_consttime``, whose time does
    not depend on the bits of ``exp``. mod must be odd; no operand may be
    negative. Each call builds and frees its own BIGNUMs and BN_CTX, so
    nothing secret outlives it and no two threads share a context.
    """
    if base < 0 or exp < 0 or mod < 0:
        raise ValueError("mod_exp takes no negative operand")
    if not mod & 1:
        raise ValueError("mod_exp needs an odd modulus")
    width = (mod.bit_length() + 7) // 8
    ctx = lib.BN_CTX_new()
    if not ctx:
        raise MemoryError("BN_CTX_new failed")
    nums = []
    try:
        for value in (base, exp, mod):
            raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
            num = lib.BN_bin2bn(raw, len(raw), None)
            if not num:
                raise MemoryError("BN_bin2bn failed")
            nums.append(num)
            lib.BN_set_flags(num, _BN_FLG_CONSTTIME)
        result = lib.BN_new()
        if not result:
            raise MemoryError("BN_new failed")
        nums.append(result)
        if lib.BN_mod_exp_mont_consttime(result, nums[0], nums[1], nums[2], ctx, None) != 1:
            raise RuntimeError("BN_mod_exp_mont_consttime failed")
        out = ctypes.create_string_buffer(width)
        if lib.BN_bn2binpad(result, out, width) != width:
            raise RuntimeError("BN_bn2binpad could not write the result")
        return int.from_bytes(out.raw, "big")
    finally:
        for num in nums:
            lib.BN_clear_free(num)
        lib.BN_CTX_free(ctx)
