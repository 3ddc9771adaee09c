"""INI configuration shared by the CLI tools.

Documented keys (all optional):

    [client]  server, manager, identity_dir, scheme, keying
    [chunk]   mode, avg_size
    [segment] avg_size
    [server]  listen, data_root, key_root, container_size
    [manager] listen, key_file, rate_capacity, rate_refill, batch_cap

Addresses and paths default to DEFAULTS below. Any other key a file leaves
unset is not passed on, so the default of the code it configures holds.
Sizes take the form <bytes>[K|M|G] (see parse_size), and a value its key
cannot take raises ValueError naming the ``[section] key``. Fixed chunking
cuts at avg_size; the former chunk keys fixed_size, min_size and max_size
are refused by name.

Only ``serve-manager`` reads [manager]; a client learns the batch cap from
the manager's public-key reply.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from .chunking import ChunkingParams, SegmentationParams

DEFAULTS = {
    "client": {
        "server": "127.0.0.1:9601",
        "manager": "127.0.0.1:9602",
        "identity_dir": "./reed-identity",
    },
    "server": {
        "listen": "127.0.0.1:9601",
        "data_root": "./reed-data",
        "key_root": "./reed-keys",
    },
    "manager": {
        "listen": "127.0.0.1:9602",
        "key_file": "./reed-manager.pem",
    },
}


def parse_address(text: str) -> tuple[str, int]:
    """(host, port) of ``host:port`` or ``[host]:port``, the form of an IPv6
    literal, whose brackets are stripped; the port is ASCII digits only."""
    host, _, port = text.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not host or "[" in host or "]" in host or not (port.isascii() and port.isdigit()):
        raise ValueError(f"expected host:port, got {text!r}")
    if int(port) > 65535:
        raise ValueError(f"port out of range 0-65535, got {text!r}")
    return host, int(port)


def parse_size(text: str) -> int:
    """A byte count of the form <bytes>[K|M|G], the suffixes powers of 1024
    (``8192``, ``1M``, ``1.5K``); ValueError names text and that form."""
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    number = text.strip()
    try:
        if number and number[-1].upper() in units:
            value = float(number[:-1]) * units[number[-1].upper()]
        else:
            value = int(number)
        if value < 0:
            raise ValueError
        return int(value)
    except (ValueError, OverflowError):
        raise ValueError(f"expected a size of the form <bytes>[K|M|G], got {text!r}") from None


def parse_positive_size(text: str) -> int:
    """parse_size(text), refused below one byte."""
    size = parse_size(text)
    if size < 1:
        raise ValueError(f"expected a size of at least 1 byte, got {text!r}")
    return size


def parse_named(name: str, parse, text: str):
    """parse(text); a ValueError it raises is raised again led by name, the
    option or flag that text came from."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


@dataclass
class Config:
    parser: configparser.ConfigParser

    @classmethod
    def load(cls, path: str | None = None) -> "Config":
        parser = configparser.ConfigParser()
        parser.read_dict(DEFAULTS)
        if path:
            if not os.path.exists(path):
                raise FileNotFoundError(f"config file {path} does not exist")
            parser.read(path)
        return cls(parser=parser)

    def get(self, section: str, key: str) -> str:
        return self.parser.get(section, key)

    def options(self, section: str, **parsers) -> dict:
        """The keys of section that the file sets, each parsed by its parser;
        a key it leaves unset is left out, so the callee's default holds. A
        value its parser refuses raises ValueError naming [section] key."""
        return {key: parse_named(f"[{section}] {key}", parse, self.parser.get(section, key))
                for key, parse in parsers.items() if self.parser.has_option(section, key)}

    def address(self, section: str, key: str) -> tuple[str, int]:
        """The host and port of [section] key; ValueError names the key."""
        return parse_named(f"[{section}] {key}", parse_address, self.get(section, key))

    def chunk_params(self, mode: str | None = None) -> ChunkingParams:
        """[chunk] mode and avg_size, with mode, when given, in place of
        [chunk] mode, so avg_size is checked under the mode in use. A removed
        key is refused by name, since ignoring it would change the cut
        points against stored data."""
        for key in ("fixed_size", "min_size", "max_size"):
            if self.parser.has_option("chunk", key):
                raise ValueError(f"[chunk] {key} was removed: fixed mode cuts at avg_size, "
                                 "and rabin chunks are avg_size/4 to 2*avg_size")
        # a mode is checked alone, under the default avg_size both modes take
        options = self.options("chunk", mode=lambda text: ChunkingParams(mode=text).mode,
                               avg_size=parse_size)
        if mode is not None:
            options["mode"] = mode
        try:
            return ChunkingParams(**options)
        except ValueError as exc:  # the mode passed, so avg_size is at fault
            raise ValueError(f"[chunk] avg_size: {exc}") from None

    def segment_params(self, chunk: ChunkingParams) -> SegmentationParams:
        """Segmentation planned for the chunking actually used."""
        return SegmentationParams(avg_chunk_size=chunk.avg_size,
                                  **self.options("segment", avg_size=parse_positive_size))
