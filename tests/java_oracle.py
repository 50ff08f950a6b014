"""The whole-file attribute extractor: the oracle for the Java skim.

`extract_attributes` here is the attribute front-end as it was before the
skim: it builds a `JAVA` token for every token of the file and runs the
declaration state machine over all of them. `archlint.annotations` must
give the same instances and findings on every input.
"""

from __future__ import annotations

from archlint.annotations import (
    _MODIFIERS,
    _TYPE_KEYWORDS,
    ANNOTATION_NAMES,
    AnnotationInstance,
    AnnotationKind,
    TargetKind,
    _ArgProblem,
    _Cursor,
    _default_package,
    _finish_instance,
    _may_follow,
    _parse_args,
    _PendingAnnotation,
    _place,
    _text_block_string,
)
from archlint.findings import Finding, SourceLocation, finding
from archlint.lexer import JAVA, Token, tokenize


def _detect_package(tokens: list[Token], path: str) -> str:
    if tokens and tokens[0].kind == "ident" and tokens[0].text == "package":
        parts: list[str] = []
        for tok in tokens[1:]:
            if tok.kind == "ident":
                parts.append(tok.text)
            elif tok.kind == "punct" and tok.text == ".":
                continue
            else:
                break
        if parts:
            return "/".join(parts)
    return _default_package(path)


def _classify_member(
    tokens: list[Token], start: int, type_stack: list[tuple[str, int]], depth: int
) -> tuple[TargetKind, str] | None:
    """Decide what declaration begins at tokens[start].

    First decisive token wins: `(` makes it a method (constructor when the
    name matches the innermost type); `=` or `;` makes it a field, or a local
    variable when we are below the innermost type's body depth.
    """
    last_ident: str | None = None
    j = start
    while j < len(tokens):
        tok = tokens[j]
        if tok.kind == "ident":
            last_ident = tok.text
        elif tok.kind == "punct":
            if tok.text == "(":
                if last_ident is None:
                    return None
                inner = type_stack[-1][0] if type_stack else None
                if last_ident == inner:
                    return (TargetKind.CONSTRUCTOR, last_ident)
                return (TargetKind.METHOD, last_ident)
            if tok.text in ("=", ";"):
                if last_ident is None:
                    return None
                inside_body = bool(type_stack) and depth > type_stack[-1][1]
                return (TargetKind.LOCAL if inside_body else TargetKind.FIELD, last_ident)
            if tok.text in ("{", "}", "@"):
                return None
        elif tok.kind == "eof":
            return None
        j += 1
    return None


def extract_attributes(
    file_text: str, path: str
) -> tuple[list[AnnotationInstance], list[Finding]]:
    """Extract Java-style annotations with heuristic target classification.

    Annotations accumulate across modifiers until a declaration starts; the
    declaration fixes target kind and name for the whole group. Brace depth
    tracks enclosing types, and @Component bodies define the enclosing
    component context for everything inside them. Annotation names outside
    the recognized eight are ignored.
    """
    tokens = tokenize(JAVA, file_text)
    package = _detect_package(tokens, path)
    instances: list[AnnotationInstance] = []
    findings: list[Finding] = []

    depth = 0
    type_stack: list[tuple[str, int]] = []  # (type name, body depth)
    comp_stack: list[tuple[tuple[str, ...], int]] = []  # (component values, body depth)
    pending: list[_PendingAnnotation] = []
    pending_type: str | None = None
    pending_comp_values: tuple[str, ...] | None = None

    def drop_pending(reason: str) -> None:
        nonlocal pending
        if pending:
            names = ", ".join(f"@{p.kind.value}" for p in pending)
            findings.append(
                finding(
                    "UNCLASSIFIABLE_TARGET",
                    f"cannot classify the declaration for {names}: {reason}",
                    locations=[pending[0].location],
                )
            )
            pending = []

    def context_values() -> tuple[str, ...]:
        return comp_stack[-1][0] if comp_stack else ()

    def emit(target: TargetKind, target_name: str) -> None:
        nonlocal pending
        group_component = tuple(
            v for p in pending if p.kind is AnnotationKind.COMPONENT for v in p.values
        )
        for p in pending:
            if p.kind is AnnotationKind.COMPONENT:
                enclosing: tuple[str, ...] = ()
            elif target is TargetKind.TYPE and group_component:
                enclosing = group_component
            else:
                enclosing = context_values()
            try:
                instances.append(
                    _place(
                        _finish_instance(p.kind, p.values, p.attrs, target, target_name, enclosing),
                        p.location, package,
                    )
                )
            except _ArgProblem as problem:
                findings.append(
                    finding("MALFORMED_ANNOTATION", problem.message, locations=[p.location])
                )
        pending = []

    def begin_type(name: str) -> None:
        nonlocal pending_type, pending_comp_values
        component_values = tuple(
            v for p in pending if p.kind is AnnotationKind.COMPONENT for v in p.values
        )
        emit(TargetKind.TYPE, name)
        pending_type = name
        pending_comp_values = component_values or None

    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.kind == "punct" and tok.text == "{":
            depth += 1
            if pending_type is not None:
                type_stack.append((pending_type, depth))
                if pending_comp_values is not None:
                    comp_stack.append((pending_comp_values, depth))
                pending_type = None
                pending_comp_values = None
            else:
                drop_pending("a block starts without a declaration")
            i += 1
            continue
        if tok.kind == "punct" and tok.text == "}":
            drop_pending("the enclosing block ends")
            while type_stack and type_stack[-1][1] == depth:
                type_stack.pop()
            while comp_stack and comp_stack[-1][1] == depth:
                comp_stack.pop()
            depth = max(0, depth - 1)
            i += 1
            continue
        if tok.kind == "punct" and tok.text == ";":
            # `class X;` style: a pending type without a body never opens a scope
            pending_type = None
            pending_comp_values = None
            i += 1
            continue
        if tok.kind == "punct" and tok.text == "@":
            nxt = tokens[i + 1] if i + 1 < len(tokens) else None
            if nxt is not None and nxt.kind == "ident" and nxt.text == "interface":
                name_tok = tokens[i + 2] if i + 2 < len(tokens) else None
                if name_tok is not None and name_tok.kind == "ident":
                    begin_type(name_tok.text)
                    i += 3
                    continue
                drop_pending("'@interface' without a name")
                i += 2
                continue
            if nxt is not None and nxt.kind == "ident":
                # By brute force, not through `lexer.Lines`.
                off = tok.start
                line = file_text.count("\n", 0, off) + 1
                location = SourceLocation(path, line, off - file_text.rfind("\n", 0, off))
                j = i + 2
                arg_tokens: list[Token] | None = None
                if j < len(tokens) and tokens[j].kind == "punct" and tokens[j].text == "(":
                    nesting = 0
                    braces = 0
                    k = j
                    collected: list[Token] = []
                    while k < len(tokens):
                        t = tokens[k]
                        if collected and not _may_follow(collected[-1], t, braces):
                            break
                        collected.append(_text_block_string(t) if t.kind == "text_block" else t)
                        if t.kind == "punct" and t.text == "{":
                            braces += 1
                        elif t.kind == "punct" and t.text == "}":
                            braces -= 1
                        elif t.kind == "punct" and t.text == "(":
                            nesting += 1
                        elif t.kind == "punct" and t.text == ")":
                            nesting -= 1
                            if nesting == 0:
                                k += 1
                                break
                        k += 1
                    arg_tokens = collected
                    j = k
                kind = ANNOTATION_NAMES.get(nxt.text)
                if kind is not None:
                    try:
                        if arg_tokens is None:
                            values, attrs = (), {}
                        else:
                            cursor = _Cursor(arg_tokens + [Token("eof", "", tok.start)])
                            values, attrs = _parse_args(cursor, kind)
                            if cursor.peek().kind != "eof":
                                raise _ArgProblem("unexpected trailing input in arguments")
                        pending.append(_PendingAnnotation(kind, values, attrs, location))
                    except _ArgProblem as problem:
                        findings.append(
                            finding("MALFORMED_ANNOTATION", problem.message, locations=[location])
                        )
                i = j
                continue
            i += 1
            continue
        if tok.kind == "ident":
            word = tok.text
            if word in _TYPE_KEYWORDS:
                name_tok = tokens[i + 1] if i + 1 < len(tokens) else None
                if name_tok is not None and name_tok.kind == "ident":
                    begin_type(name_tok.text)
                    i += 2
                    continue
                drop_pending(f"'{word}' without a name")
                i += 1
                continue
            if word in _MODIFIERS:
                i += 1
                continue
            if pending:
                classified = _classify_member(tokens, i, type_stack, depth)
                if classified is None:
                    drop_pending("no declaration found")
                else:
                    emit(*classified)
            i += 1
            continue
        if pending:
            drop_pending("no declaration found")
        i += 1
    drop_pending("end of file")
    return instances, findings
