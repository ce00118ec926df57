"""Parser for vendor-style core-network configuration files.

The accepted grammar is the C-flavoured key/value style used by embedded
5G core configs: ``name: value`` pairs separated by commas or newlines,
objects in ``{}``, arrays in ``[]``, ``//`` and ``/* */`` comments, and
scalars that are double-quoted strings, decimal integers, booleans,
dotted-quad IPv4 addresses, or ``a.b.c.d/n`` CIDR blocks.

``parse_phys_config`` tokenizes the text with one regular expression and
parses the tokens into a plain tree: the root dict, holding dicts, lists
and scalars. ``extract_descriptor`` maps that tree onto a TwinDescriptor
and checks the type of every field it reads. Both are pure functions.
"""

import ipaddress
import re
import sys
from dataclasses import dataclass
from typing import Any, Mapping

from .errors import ConfigSyntaxError, DescriptorValidationError, ExtractionError
from .model import SliceSpec, TwinDescriptor, validate_descriptor
from .model import DEFAULT_CAPTURE_INTERFACE, DEFAULT_WINDOW_SECONDS


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # ident string int bool ip cidr { } [ ] : , eof
    value: Any
    line: int
    col: int
    nl_before: bool


# One alternative per token class, tried in order at each position. A
# string's body admits any escape and may stop short of its closing quote:
# an unknown escape is reported before a missing quote, as a scan from the
# left meets them.
_TOKEN_RE = re.compile(
    r"""(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)
      | (?P<punct>[{}\[\]:,])
      | "(?P<body>(?:[^"\\\n]|\\.)*)(?P<string>"?)
      | (?P<literal>[-0-9][0-9.]*(?:/[0-9]+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)""",
    re.VERBOSE | re.DOTALL,
)
_LITERAL_RE = re.compile(
    r"(?P<int>-?[0-9]+)|(?P<ip>[0-9]+(?:\.[0-9]+){3})|(?P<cidr>[0-9]+(?:\.[0-9]+){3}/[0-9]+)"
)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def _string_value(body: str, line: int, col: int) -> str:
    """The text a string token's body spells; ``col`` is the body's first column."""
    def escape(m: re.Match) -> str:
        if m[1] not in _ESCAPES:
            raise ConfigSyntaxError(f"unknown escape '\\{m[1]}'", line, col + m.start(1))
        return _ESCAPES[m[1]]

    return _ESCAPE_RE.sub(escape, body) if "\\" in body else body


def _literal(word: str, line: int, col: int) -> tuple[str, Any]:
    """The kind and value of a numeric or address literal."""
    m = _LITERAL_RE.fullmatch(word)
    kind = m.lastgroup if m else None
    if kind == "int":
        try:
            return kind, int(word)
        except ValueError:  # more digits than the interpreter converts
            digits = len(word.lstrip("-"))
            raise ConfigSyntaxError(
                f"integer literal of {digits} digits exceeds the {sys.get_int_max_str_digits()}-digit limit", line, col)
    if kind == "ip":
        try:
            return kind, ipaddress.ip_address(word)
        except ValueError:
            raise ConfigSyntaxError(f"invalid IP address {word!r}", line, col)
    if kind == "cidr":
        try:
            return kind, ipaddress.ip_network(word, strict=True)
        except ValueError as exc:
            raise ConfigSyntaxError(f"invalid CIDR {word!r}: {exc}", line, col)
    raise ConfigSyntaxError(f"malformed numeric or address literal {word!r}", line, col)


def _tokens(text: str) -> list[_Token]:
    """Every token of ``text``, then an end-of-input token. Raises
    ConfigSyntaxError at the first position where no token can start, or
    at the first string or literal that is malformed."""
    out: list[_Token] = []
    pos, line, line_start, nl_before = 0, 1, 0, False
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        col = pos - line_start + 1
        if m is None:
            if text.startswith("/*", pos):
                raise ConfigSyntaxError("unterminated block comment", line, col, "'*/'")
            raise ConfigSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind, word = m.lastgroup, m[0]
        pos = m.end()
        if kind == "skip":
            if "\n" in word:
                line += word.count("\n")
                line_start = m.start() + word.rindex("\n") + 1
                nl_before = True
            continue
        if kind == "punct":
            value = kind = word
        elif kind == "string":
            value = _string_value(m["body"], line, col + 1)
            if not m["string"]:
                raise ConfigSyntaxError("unterminated string", line, col, "closing '\"'")
        elif kind == "literal":
            kind, value = _literal(word, line, col)
        elif word in ("true", "false"):
            kind, value = "bool", word == "true"
        else:
            value = word
        out.append(_Token(kind, value, line, col, nl_before))
        nl_before = False
    out.append(_Token("eof", None, line, len(text) - line_start + 1, nl_before))
    return out


_SCALAR_KINDS = ("string", "int", "bool", "ip", "cidr")


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def _peek(self) -> _Token:
        return self.tokens[self.i]

    def _next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _fail(self, tok: _Token, expected: str):
        found = "end of input" if tok.kind == "eof" else repr(tok.value if tok.value is not None else tok.kind)
        raise ConfigSyntaxError(f"unexpected {found}", tok.line, tok.col, expected)

    def document(self) -> dict[str, Any]:
        root = self._pairs("eof")
        return root

    def _pairs(self, closer: str) -> dict[str, Any]:
        entries: dict[str, Any] = {}
        sep_ok = True  # no separator required before the first entry
        while True:
            tok = self._peek()
            if tok.kind == closer:
                self._next()
                return entries
            if not sep_ok and not tok.nl_before:
                self._fail(tok, "',' or newline between entries")
            if tok.kind != "ident":
                self._fail(tok, "a field name" if sep_ok else f"a field name or '{closer}'")
            name = self._next()
            if name.value in entries:
                raise ConfigSyntaxError(f"duplicate field {name.value!r}", name.line, name.col)
            colon = self._next()
            if colon.kind != ":":
                self._fail(colon, "':'")
            entries[name.value] = self._value()
            sep_ok = self._eat_comma()

    def _eat_comma(self) -> bool:
        # A comma satisfies the separator rule outright; a newline before
        # the next token also counts, checked by the caller.
        tok = self._peek()
        if tok.kind == ",":
            self._next()
            return True
        return False

    def _value(self) -> Any:
        tok = self._peek()
        if tok.kind in _SCALAR_KINDS:
            return self._next().value
        if tok.kind == "{":
            self._next()
            return self._pairs("}")
        if tok.kind == "[":
            self._next()
            return self._array()
        self._fail(tok, "a value (string, integer, boolean, IP, CIDR, '{' or '[')")

    def _array(self) -> list[Any]:
        items: list[Any] = []
        sep_ok = True
        while True:
            tok = self._peek()
            if tok.kind == "]":
                self._next()
                return items
            if not sep_ok and not tok.nl_before:
                self._fail(tok, "',' or newline between elements")
            items.append(self._value())
            sep_ok = self._eat_comma()


def parse_phys_config(text: str) -> dict[str, Any]:
    """Parse configuration text into its root object, consuming every byte
    of input. The whole text is tokenized first, so a lexical error is
    reported before any parse error.

    Raises ConfigSyntaxError with line/column and an expected-token hint
    on any malformed input; never raises anything else.
    """
    return _Parser(_tokens(text)).document()


# --- descriptor extraction --------------------------------------------------

_KNOWN_TOP = {
    "access_point_list",
    "ue_count",
    "network_name",
    "plmn",
    "capture_interface",
    "window_seconds",
}
_KNOWN_AP = {"apn", "ip", "cidr", "tun_bw", "tun_bw_dl", "tun_bw_ul", "qci"}

_ADDRESS_TYPES = (ipaddress.IPv4Address, ipaddress.IPv6Address)
_NETWORK_TYPES = (ipaddress.IPv4Network, ipaddress.IPv6Network)


_REQUIRED = object()


def _typed(tree: Mapping[str, Any], key: str, kinds, path: str, type_name: str, default: Any = _REQUIRED):
    """``tree[key]`` if it is of ``kinds`` (an int is never a bool), else an
    ExtractionError naming its path; ``default`` when the key is absent,
    which without one is an error too."""
    where = f"{path}.{key}" if path else key
    if key not in tree:
        if default is _REQUIRED:
            raise ExtractionError(where)
        return default
    value = tree[key]
    if not isinstance(value, kinds) or (kinds is int and isinstance(value, bool)):
        raise ExtractionError(where, f"expected {type_name}")
    return value


def extract_descriptor(root: Mapping[str, Any]) -> tuple[TwinDescriptor, list[str]]:
    """Map a parsed physical configuration onto a TwinDescriptor.

    One slice is produced per access-point entry; optional fields absent
    from the tree take built-in fallbacks. Every field read is checked for
    its type. Returns the descriptor plus warnings for ignored unknown
    keys. Raises ExtractionError naming the path of a missing or ill-typed
    field, and DescriptorValidationError when the assembled descriptor is
    invalid.
    """
    warnings = [f"ignored unknown key '{k}'" for k in root if k not in _KNOWN_TOP]
    aps = _typed(root, "access_point_list", list, "", "an array of access points")

    slices: list[SliceSpec] = []
    for i, ap in enumerate(aps):
        path = f"access_point_list[{i}]"
        if not isinstance(ap, dict):
            raise ExtractionError(path, "expected an object")
        warnings += [f"ignored unknown key '{path}.{k}'" for k in ap if k not in _KNOWN_AP]
        apn = _typed(ap, "apn", str, path, "a string")
        gateway = _typed(ap, "ip", _ADDRESS_TYPES, path, "an IP address")
        subnet = _typed(ap, "cidr", _NETWORK_TYPES, path, "a CIDR block")
        # The vendor format carries one tunnel bandwidth; distinct
        # tun_bw_dl / tun_bw_ul keys override per direction when present.
        bw = _typed(ap, "tun_bw", int, path, "an integer bandwidth", None)
        dl = _typed(ap, "tun_bw_dl", int, path, "an integer bandwidth", bw)
        ul = _typed(ap, "tun_bw_ul", int, path, "an integer bandwidth", bw)
        if dl is None or ul is None:
            raise ExtractionError(f"{path}.tun_bw")
        qci = _typed(ap, "qci", int, path, "an integer", 9)
        slices.append(SliceSpec(apn, str(subnet), str(gateway), dl, ul, qci))

    descriptor = TwinDescriptor(
        network_name=_typed(root, "network_name", str, "", "a string", "private-5g"),
        plmn=_typed(root, "plmn", str, "", "a string", "00101"),
        ue_count=_typed(root, "ue_count", int, "", "an integer"),
        slices=tuple(slices),
        window_seconds=_typed(root, "window_seconds", int, "", "an integer", DEFAULT_WINDOW_SECONDS),
        capture_interface=_typed(root, "capture_interface", str, "", "a string", DEFAULT_CAPTURE_INTERFACE),
    )
    violations = validate_descriptor(descriptor)
    if violations:
        raise DescriptorValidationError(violations)
    return descriptor, warnings
