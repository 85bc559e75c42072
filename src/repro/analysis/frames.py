"""Protocol frame conformance.

Three cross-checks over the wire layer, all AST-derived:

1. **MAGIC constants** — every module-level ``MAGIC*`` bytes constant
   must have an encoder (the name appears as a call argument, i.e. it
   is packed into a header somewhere) and a decoder (the name appears
   in a comparison, i.e. ``recv_frame`` dispatches on it).  An orphan
   means a frame type that can be produced but never parsed, or
   parsed but never produced.

2. **Capability negotiation** — the key sets of the hello handshake
   must line up end to end: every key a client offer function
   (``_offer_capabilities`` / ``_hello_caps``) puts in its returned
   dict must be examined by an accept site (``accept_capabilities``,
   ``parse_hello`` or the daemon's hello arm in ``_serve``), and every
   key the client applies from the ack (``_apply_negotiated_caps``)
   must be one the accept side can actually grant.  A typo'd
   capability name silently negotiates to "off" — this check makes it
   loud.

3. **Frame kinds** — every request kind a client sends (tuples built
   by ``*_message`` helpers or passed to the send/request plumbing,
   plus the implied kind of every ``send_<kind>_frame`` helper) must
   have a dispatch arm comparing against it on some peer loop; arms
   that no in-tree client ever sends are reported too, so dead
   protocol surface is at least a conscious, baselined decision.
"""

from __future__ import annotations

import ast

from .core import Finding, FunctionInfo, Project, rule

__all__: list[str] = []

#: functions whose returned dict carries the client's hello offer
_OFFER_FUNCS = frozenset({"_offer_capabilities", "_hello_caps"})
#: functions that examine an offer (variables named offered/offer)
_ACCEPT_FUNCS = frozenset({"accept_capabilities", "parse_hello", "_serve"})
_ACCEPT_VARS = frozenset({"offered", "offer"})
#: the client side applying the negotiated ack
_APPLY_FUNCS = frozenset({"_apply_negotiated_caps"})

#: plumbing that takes a ``(kind, ...)`` request tuple; ``put`` covers
#: the queue-shaped transports (mpi mailboxes, TaskGraph event loop)
_SEND_FUNCS = frozenset({
    "_send_frame_locked", "_request", "send_frame", "send_frame_v2",
    "reply", "reply_frame", "put",
})
#: reply kinds delivered through the reader's else-branch
_IMPLICIT_KINDS = frozenset({"error"})


def _str_const(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _tuple_kind(node: ast.expr) -> str | None:
    """First-element string of a tuple literal, seeing through the
    ``("kind", x) + extras`` concatenation idiom."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _tuple_kind(node.left)
    if isinstance(node, ast.Tuple) and node.elts:
        return _str_const(node.elts[0])
    return None


def _check_magic(project: Project) -> list[Finding]:
    findings = []
    for module in project.modules:
        constants: dict[str, int] = {}
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Name)
                            and target.id.startswith("MAGIC")
                            and isinstance(node.value, ast.Constant)
                            and isinstance(node.value.value, bytes)):
                        constants[target.id] = node.lineno
        if not constants:
            continue
        packed: set[str] = set()
        compared: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        packed.add(arg.id)
            elif isinstance(node, ast.Compare):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        compared.add(sub.id)
        for name, line in sorted(constants.items()):
            missing = []
            if name not in packed:
                missing.append("encoder (never packed into a frame)")
            if name not in compared:
                missing.append("decoder (never compared at receive)")
            if missing:
                findings.append(Finding(
                    rule="frame-conformance",
                    path=module.rel,
                    line=line,
                    message=(
                        f"orphaned frame constant {name}: missing "
                        + " and ".join(missing)
                    ),
                    key=f"frame-conformance:magic:{module.rel}::{name}",
                ))
    return findings


def _returned_dict_keys(info: FunctionInfo) -> set[str]:
    """Keys subscript-assigned onto the variable(s) the function
    returns (the offer/ack dict construction idiom)."""
    returned: set[str] = set()
    for node in ast.walk(info.node):
        if isinstance(node, ast.Return) and isinstance(
            node.value, ast.Name
        ):
            returned.add(node.value.id)
    keys: set[str] = set()
    for node in ast.walk(info.node):
        if (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Subscript)
                and isinstance(node.targets[0].value, ast.Name)
                and node.targets[0].value.id in returned):
            key = _str_const(node.targets[0].slice)
            if key is not None:
                keys.add(key)
    return keys


def _examined_keys(info: FunctionInfo, varnames: frozenset[str],
                   any_var: bool = False) -> set[str]:
    """String keys read off *varnames* via .get()/[...]/`in`."""
    keys: set[str] = set()
    for node in ast.walk(info.node):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and node.args):
            if any_var or (isinstance(node.func.value, ast.Name)
                           and node.func.value.id in varnames):
                key = _str_const(node.args[0])
                if key is not None:
                    keys.add(key)
        elif isinstance(node, ast.Subscript) and (
            any_var or (isinstance(node.value, ast.Name)
                        and node.value.id in varnames)
        ):
            key = _str_const(node.slice)
            if key is not None:
                keys.add(key)
        elif isinstance(node, ast.Compare) and len(node.ops) == 1 and (
            isinstance(node.ops[0], ast.In)
        ) and (
            any_var or (isinstance(node.comparators[0], ast.Name)
                        and node.comparators[0].id in varnames)
        ):
            key = _str_const(node.left)
            if key is not None:
                keys.add(key)
    return keys


def _check_capabilities(project: Project) -> list[Finding]:
    offered: dict[str, tuple[str, int, str]] = {}
    accepted: set[str] = set()
    granted: set[str] = set()
    applied: dict[str, tuple[str, int, str]] = {}
    for module in project.modules:
        for info in module.all_functions():
            if info.name in _OFFER_FUNCS:
                for key in _returned_dict_keys(info):
                    offered.setdefault(
                        key, (module.rel, info.node.lineno, info.site)
                    )
            if info.name in _ACCEPT_FUNCS:
                accepted |= _examined_keys(info, _ACCEPT_VARS)
            if info.name == "accept_capabilities":
                granted |= _returned_dict_keys(info)
            if info.name in _APPLY_FUNCS:
                for key in _examined_keys(
                    info, frozenset(), any_var=True
                ):
                    applied.setdefault(
                        key, (module.rel, info.node.lineno, info.site)
                    )
    findings = []
    for key, (rel, line, site) in sorted(offered.items()):
        if key not in accepted:
            findings.append(Finding(
                rule="frame-conformance",
                path=rel,
                line=line,
                message=(
                    f"capability {key!r} offered by {site} is never "
                    "examined by any accept site — it silently "
                    "negotiates to off"
                ),
                key=f"frame-conformance:cap-offer:{key}",
            ))
    for key, (rel, line, site) in sorted(applied.items()):
        if granted and key not in granted:
            findings.append(Finding(
                rule="frame-conformance",
                path=rel,
                line=line,
                message=(
                    f"capability {key!r} applied by {site} is never "
                    "granted by accept_capabilities"
                ),
                key=f"frame-conformance:cap-apply:{key}",
            ))
    return findings


def _sent_kinds(info: FunctionInfo) -> set[str]:
    kinds: set[str] = set()
    # *_message builders and _pack* codecs return the (kind, ...) tuple
    if info.name.endswith("_message") or info.name.startswith("_pack"):
        for node in ast.walk(info.node):
            if isinstance(node, ast.Return) and node.value is not None:
                kind = _tuple_kind(node.value)
                if kind is not None:
                    kinds.add(kind)
    # tuple-valued local assignments, so `msg = ("kind", ...)` followed
    # by `self._request(msg)` still counts as sending that kind
    local_tuples: dict[str, str] = {}
    for node in ast.walk(info.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            kind = _tuple_kind(node.value)
            if kind is not None:
                local_tuples[node.targets[0].id] = kind
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        name = None
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
        elif isinstance(node.func, ast.Name):
            name = node.func.id
        if name not in _SEND_FUNCS:
            continue
        for arg in node.args:
            kind = _tuple_kind(arg)
            if kind is None and isinstance(arg, ast.Name):
                kind = local_tuples.get(arg.id)
            if kind is not None:
                kinds.add(kind)
    return kinds


def _handled_kinds(info: FunctionInfo) -> set[str]:
    kinds: set[str] = set()
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left] + list(node.comparators)
        if not any(
            isinstance(s, ast.Name) and "kind" in s.id for s in sides
        ):
            continue
        for side in sides:
            value = _str_const(side)
            if value is not None:
                kinds.add(value)
            elif isinstance(side, (ast.Tuple, ast.List)):
                for elt in side.elts:
                    value = _str_const(elt)
                    if value is not None:
                        kinds.add(value)
    return kinds


def _check_kinds(project: Project) -> list[Finding]:
    sent: dict[str, tuple[str, int, str]] = {}
    handled: dict[str, tuple[str, int, str]] = {}
    for module in project.modules:
        for info in module.all_functions():
            for kind in _sent_kinds(info):
                sent.setdefault(
                    kind, (module.rel, info.node.lineno, info.site)
                )
            for kind in _handled_kinds(info):
                handled.setdefault(
                    kind, (module.rel, info.node.lineno, info.site)
                )
            # send_<kind>_frame helpers imply a kind on the wire
            if (info.name.startswith("send_")
                    and info.name.endswith("_frame")):
                implied = info.name[len("send_"):-len("_frame")]
                if implied:
                    sent.setdefault(
                        implied,
                        (module.rel, info.node.lineno, info.site),
                    )
    findings = []
    for kind, (rel, line, site) in sorted(sent.items()):
        if kind not in handled and kind not in _IMPLICIT_KINDS:
            findings.append(Finding(
                rule="frame-conformance",
                path=rel,
                line=line,
                message=(
                    f"frame kind {kind!r} sent by {site} has no "
                    "dispatch arm on any peer loop"
                ),
                key=f"frame-conformance:unhandled:{kind}",
            ))
    for kind, (rel, line, site) in sorted(handled.items()):
        if kind not in sent and kind not in _IMPLICIT_KINDS:
            findings.append(Finding(
                rule="frame-conformance",
                path=rel,
                line=line,
                message=(
                    f"dispatch arm for frame kind {kind!r} in {site} "
                    "is never sent by any in-tree client (dead "
                    "protocol surface?)"
                ),
                key=f"frame-conformance:dead-arm:{kind}",
            ))
    return findings


@rule(
    "frame-conformance",
    "every MAGIC constant encodes and decodes; hello capability names "
    "agree across offer/accept/apply; every sent frame kind has a "
    "peer dispatch arm",
)
def check_frame_conformance(project: Project) -> list[Finding]:
    return (
        _check_magic(project)
        + _check_capabilities(project)
        + _check_kinds(project)
    )
