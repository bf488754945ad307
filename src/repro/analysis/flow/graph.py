"""The program index: functions, classes, and the call graph.

One pass over every parsed module builds :class:`FunctionInfo` records
(module functions, methods, local defs, lambdas) with their call sites
pre-classified by *delegation context* — whether the call's generator
is driven (``yield from g(...)``), forwarded (``return g(...)``),
discarded (a bare expression statement), or merely used as a value.
Call targets are resolved with deliberately simple, documented
approximations:

* bare names -- lexically enclosing local defs, then module functions,
  then ``from``-imports into other analyzed modules;
* ``self.m()`` / ``cls.m()`` -- class-hierarchy approximation: the
  enclosing class, its ancestors by name, and every transitive
  subclass override;
* ``obj.m()`` -- when ``obj`` is a parameter with a (possibly quoted)
  class annotation, or a local assigned from ``ClassName(...)``;
* ``mod.f()`` -- when ``mod`` is an imported analyzed module.

Anything else (call-of-call, registry dispatch, attribute-of-attribute
receivers) stays unresolved; effect inference then falls back to the
runtime-primitive *pattern* the direct checks match, so an unresolved
``proc.am.rpc(...)`` still carries its intrinsic effect.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import SourceFile, dotted_name

__all__ = ["CallSite", "FunctionInfo", "ClassInfo", "ModuleInfo",
           "ProgramIndex", "build_index", "CONTEXT_DELEGATED",
           "CONTEXT_RETURNED", "CONTEXT_DROPPED", "CONTEXT_OTHER"]

#: Delegation contexts of a call site.
CONTEXT_DELEGATED = "delegated"   # yield from g(...) / yield g(...)
CONTEXT_RETURNED = "returned"     # return g(...)  (generator forwarding)
CONTEXT_DROPPED = "dropped"       # g(...) as a bare statement
CONTEXT_OTHER = "other"           # assigned, passed as argument, ...

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


class CallSite:
    """One call expression inside one function's own scope."""

    __slots__ = ("node", "chain", "context", "targets", "line", "col")

    def __init__(self, node: ast.Call, chain: Optional[List[str]],
                 context: str) -> None:
        self.node = node
        self.chain = chain            # ["proc", "am", "rpc"] or None
        self.context = context
        self.targets: List["FunctionInfo"] = []   # resolved callees
        self.line = node.lineno
        self.col = node.col_offset + 1

    @property
    def resolved(self) -> bool:
        return bool(self.targets)


class FunctionInfo:
    """One function-like scope (def, method, local def, or lambda)."""

    def __init__(self, node: ast.AST, source: SourceFile,
                 module: "ModuleInfo", name: str, qualname: str,
                 class_name: Optional[str],
                 enclosing: Optional["FunctionInfo"]) -> None:
        self.node = node
        self.source = source
        self.module = module
        self.name = name
        self.qualname = qualname
        self.class_name = class_name
        self.enclosing = enclosing
        self.line = getattr(node, "lineno", 1)
        self.local_defs: Dict[str, FunctionInfo] = {}
        self.calls: List[CallSite] = []
        #: statement-list containers of every ``If`` in own scope:
        #: (if_node, containing stmt list, index within it).
        self.branches: List[Tuple[ast.If, List[ast.stmt], int]] = []
        self.params: List[str] = []
        self.annotations: Dict[str, str] = {}
        self.returns: List[ast.expr] = []          # non-None return values
        self.assigns: List[Tuple[str, ast.expr]] = []  # name = expr
        self.ctor_types: Dict[str, str] = {}       # name = ClassName(...)
        self.is_generator = False
        # -- filled by the effect/taint fixpoint --
        self.effects: Set[str] = set()
        self.witness: Dict[str, tuple] = {}
        self.gen_like = False
        self.tainted_params: Set[str] = set()
        self.tainted_locals: Set[str] = set()
        self.returns_tainted = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FunctionInfo {self.qualname}>"

    @property
    def display_name(self) -> str:
        if self.class_name:
            return f"{self.class_name}.{self.name}"
        return self.name

    def lookup_local(self, name: str) -> Optional["FunctionInfo"]:
        scope: Optional[FunctionInfo] = self
        while scope is not None:
            target = scope.local_defs.get(name)
            if target is not None:
                return target
            scope = scope.enclosing
        return None

    def lookup_annotation(self, name: str) -> Optional[str]:
        scope: Optional[FunctionInfo] = self
        while scope is not None:
            if name in scope.annotations:
                return scope.annotations[name]
            if name in scope.ctor_types:
                return scope.ctor_types[name]
            if name in scope.params:
                return None   # unannotated parameter shadows outer scopes
            scope = scope.enclosing
        return None


class ClassInfo:
    """One class definition with its methods and base-name list."""

    def __init__(self, node: ast.ClassDef, module: "ModuleInfo") -> None:
        self.node = node
        self.module = module
        self.name = node.name
        self.bases: List[str] = []
        for base in node.bases:
            base_name = dotted_name(base)
            if base_name:
                self.bases.append(base_name.rsplit(".", 1)[-1])
        self.methods: Dict[str, FunctionInfo] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ClassInfo {self.name}>"


class ModuleInfo:
    """One analyzed module: top-level functions, classes, and imports."""

    def __init__(self, source: SourceFile, modname: str) -> None:
        self.source = source
        self.modname = modname
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: alias -> ("module", dotted) | ("symbol", dotted, name)
        self.imports: Dict[str, tuple] = {}


def _module_name(path: str) -> str:
    parts = path.replace("\\", "/").split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if "repro" in parts[:-1]:
        pkg = parts[parts.index("repro"):-1]
        if stem == "__init__":
            return ".".join(pkg)
        return ".".join(pkg + [stem])
    return stem


class ProgramIndex:
    """Every function/class in the analyzed file set, plus resolution."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}       # modname -> info
        self.by_path: Dict[str, ModuleInfo] = {}       # source path -> info
        self.functions: List[FunctionInfo] = []        # every scope
        self.lambdas: Dict[int, FunctionInfo] = {}     # id(node) -> scope
        #: registered AM handler -> its (registering function, site)s;
        #: filled by ``checks.build_program``.
        self.handlers: Dict[FunctionInfo, List[Tuple[FunctionInfo,
                                                     CallSite]]] = {}
        self.classes: Dict[str, List[ClassInfo]] = {}  # bare name -> defs
        self.subclasses: Dict[str, List[ClassInfo]] = {}

    # -- construction -------------------------------------------------------
    def add_module(self, source: SourceFile) -> None:
        if source.tree is None:
            return
        module = ModuleInfo(source, _module_name(source.path))
        self.modules[module.modname] = module
        self.by_path[source.path] = module
        _scan_imports(source.tree, module)
        for stmt in source.tree.body:
            if isinstance(stmt, _FUNC_NODES):
                module.functions[stmt.name] = self._index_function(
                    stmt, source, module, class_name=None, enclosing=None,
                    prefix=module.modname)
            elif isinstance(stmt, ast.ClassDef):
                info = ClassInfo(stmt, module)
                module.classes[stmt.name] = info
                self.classes.setdefault(stmt.name, []).append(info)
                for sub in stmt.body:
                    if isinstance(sub, _FUNC_NODES):
                        info.methods[sub.name] = self._index_function(
                            sub, source, module, class_name=stmt.name,
                            enclosing=None,
                            prefix=f"{module.modname}.{stmt.name}")

    def finish(self) -> None:
        """Link subclasses and resolve every call site."""
        for infos in self.classes.values():
            for info in infos:
                for base in info.bases:
                    self.subclasses.setdefault(base, []).append(info)
        for func in self.functions:
            for call in func.calls:
                call.targets = self._resolve(func, call)

    def _index_function(self, node, source: SourceFile,
                        module: ModuleInfo, class_name: Optional[str],
                        enclosing: Optional[FunctionInfo],
                        prefix: str) -> FunctionInfo:
        name = getattr(node, "name", "<lambda>")
        qualname = f"{prefix}.{name}" if enclosing is None else \
            f"{enclosing.qualname}.<locals>.{name}"
        func = FunctionInfo(node, source, module, name, qualname,
                            class_name, enclosing)
        self.functions.append(func)
        if isinstance(node, ast.Lambda):
            self.lambdas[id(node)] = func
        args = node.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            func.params.append(arg.arg)
            note = _annotation_name(arg.annotation)
            if note:
                func.annotations[arg.arg] = note
        if isinstance(node, ast.Lambda):
            _index_body(func, [ast.Expr(value=node.body)], self,
                        synthetic=True)
        else:
            _index_body(func, node.body, self, synthetic=False)
        return func

    # -- resolution ---------------------------------------------------------
    def _resolve(self, func: FunctionInfo,
                 call: CallSite) -> List[FunctionInfo]:
        chain = call.chain
        if not chain:
            return []
        if len(chain) == 1:
            return self._resolve_bare(func, chain[0])
        if len(chain) == 2:
            return self._resolve_attr(func, chain[0], chain[1])
        return []

    def _resolve_bare(self, func: FunctionInfo,
                      name: str) -> List[FunctionInfo]:
        local = func.lookup_local(name)
        if local is not None:
            return [local]
        module = func.module
        target = module.functions.get(name)
        if target is not None:
            return [target]
        if name in module.classes:
            init = module.classes[name].methods.get("__init__")
            return [init] if init else []
        imported = module.imports.get(name)
        if imported and imported[0] == "symbol":
            other = self.modules.get(imported[1])
            if other is not None:
                target = other.functions.get(imported[2])
                if target is not None:
                    return [target]
                if imported[2] in other.classes:
                    init = other.classes[imported[2]].methods.get("__init__")
                    return [init] if init else []
        return []

    def _resolve_attr(self, func: FunctionInfo, base: str,
                      attr: str) -> List[FunctionInfo]:
        module = func.module
        if base in ("self", "cls") and func.class_name:
            cls = module.classes.get(func.class_name)
            if cls is not None:
                return self._lookup_method(cls, attr)
            return []
        # Parameter with a class annotation, or local built in-scope.
        note = func.lookup_annotation(base)
        if note:
            cls = self._find_class(module, note)
            if cls is not None:
                return self._lookup_method(cls, attr)
        # Imported analyzed module: mod.f(...).
        imported = module.imports.get(base)
        if imported:
            if imported[0] == "module":
                other = self.modules.get(imported[1])
            else:
                other = self.modules.get(f"{imported[1]}.{imported[2]}")
            if other is not None:
                target = other.functions.get(attr)
                if target is not None:
                    return [target]
        # Unbound ClassName.method(...).
        cls = module.classes.get(base)
        if cls is not None:
            return self._lookup_method(cls, attr)
        return []

    def _find_class(self, module: ModuleInfo,
                    name: str) -> Optional[ClassInfo]:
        bare = name.rsplit(".", 1)[-1]
        if bare in module.classes:
            return module.classes[bare]
        candidates = self.classes.get(bare)
        return candidates[0] if candidates else None

    def _lookup_method(self, cls: ClassInfo,
                       attr: str) -> List[FunctionInfo]:
        found: List[FunctionInfo] = []
        seen: Set[int] = set()
        # The class and its ancestors (first definition wins per branch).
        stack = [cls]
        while stack:
            info = stack.pop()
            if id(info) in seen:
                continue
            seen.add(id(info))
            method = info.methods.get(attr)
            if method is not None:
                found.append(method)
            else:
                for base in info.bases:
                    stack.extend(self.classes.get(base, []))
        # Every transitive subclass override (CHA).
        stack = list(self.subclasses.get(cls.name, []))
        while stack:
            info = stack.pop()
            if id(info) in seen:
                continue
            seen.add(id(info))
            method = info.methods.get(attr)
            if method is not None:
                found.append(method)
            stack.extend(self.subclasses.get(info.name, []))
        return found


def _annotation_name(node: Optional[ast.expr]) -> Optional[str]:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("'\" ") or None
    name = dotted_name(node)
    return name


def _scan_imports(tree: ast.Module, module: ModuleInfo) -> None:
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                module.imports[name] = ("module", alias.name)
        elif isinstance(stmt, ast.ImportFrom) and stmt.module and \
                stmt.level == 0:
            for alias in stmt.names:
                name = alias.asname or alias.name
                module.imports[name] = ("symbol", stmt.module, alias.name)


def _index_body(func: FunctionInfo, body: Sequence[ast.stmt],
                index: ProgramIndex, synthetic: bool) -> None:
    """Walk one function's own scope, classifying calls and branches."""
    # Parent links within this scope only; nested defs become their own
    # FunctionInfo and are not descended into here.
    delegated: Set[int] = set()
    returned: Set[int] = set()
    dropped: Set[int] = set()

    def walk_stmts(stmts: Sequence[ast.stmt]) -> None:
        stmt_list = list(stmts)
        for pos, stmt in enumerate(stmt_list):
            if isinstance(stmt, _FUNC_NODES):
                func.local_defs[stmt.name] = index._index_function(
                    stmt, func.source, func.module,
                    class_name=func.class_name, enclosing=func,
                    prefix=func.qualname)
                continue
            if isinstance(stmt, ast.ClassDef):
                continue   # local classes: out of scope
            if isinstance(stmt, ast.If):
                func.branches.append((stmt, stmt_list, pos))
                walk_exprs(stmt.test)
                walk_stmts(stmt.body)
                walk_stmts(stmt.orelse)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                walk_exprs(stmt.iter)
                walk_stmts(stmt.body)
                walk_stmts(stmt.orelse)
                continue
            if isinstance(stmt, ast.While):
                walk_exprs(stmt.test)
                walk_stmts(stmt.body)
                walk_stmts(stmt.orelse)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    walk_exprs(item.context_expr)
                walk_stmts(stmt.body)
                continue
            if isinstance(stmt, ast.Try):
                walk_stmts(stmt.body)
                for handler in stmt.handlers:
                    walk_stmts(handler.body)
                walk_stmts(stmt.orelse)
                walk_stmts(stmt.finalbody)
                continue
            if isinstance(stmt, ast.Return):
                if stmt.value is not None:
                    func.returns.append(stmt.value)
                    if isinstance(stmt.value, ast.Call):
                        returned.add(id(stmt.value))
                    walk_exprs(stmt.value)
                continue
            if isinstance(stmt, ast.Expr):
                value = stmt.value
                if isinstance(value, ast.Call):
                    # A lambda body is an implicit return, not a drop.
                    (returned if synthetic else dropped).add(id(value))
                walk_exprs(value)
                continue
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                record_assign(stmt)
                walk_exprs(stmt)
                continue
            walk_exprs(stmt)

    def record_assign(stmt: ast.stmt) -> None:
        value = getattr(stmt, "value", None)
        if value is None:
            return
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            func.assigns.append((target.id, value))
            if isinstance(value, ast.Call):
                ctor = dotted_name(value.func)
                if ctor and "." not in ctor and \
                        (ctor in func.module.classes
                         or ctor in index.classes):
                    func.ctor_types[target.id] = ctor
                imported = func.module.imports.get(ctor or "")
                if imported and imported[0] == "symbol":
                    func.ctor_types.setdefault(target.id, imported[2])
            if isinstance(value, ast.Lambda):
                func.local_defs[target.id] = index_lambda(value)

    def index_lambda(node: ast.Lambda) -> FunctionInfo:
        lam = index.lambdas.get(id(node))
        if lam is None:
            lam = index._index_function(
                node, func.source, func.module,
                class_name=func.class_name, enclosing=func,
                prefix=func.qualname)
        return lam

    def walk_exprs(node: ast.AST) -> None:
        stack: List[ast.AST] = [node]
        while stack:
            child = stack.pop()
            if isinstance(child, ast.Lambda):
                index_lambda(child)
                continue   # a separate scope
            if isinstance(child, _FUNC_NODES):
                continue
            if isinstance(child, (ast.Yield, ast.YieldFrom)):
                if not synthetic:
                    func.is_generator = True
                if isinstance(child.value, ast.Call):
                    delegated.add(id(child.value))
                if isinstance(child, ast.Yield) and \
                        child.value is not None:
                    # ``yield <event>`` suspends the process: an
                    # intrinsic blocking effect of this function.
                    func.effects.add("blocks")
                    func.witness.setdefault(
                        "blocks", ("intrinsic", child, "yield <event>"))
            if isinstance(child, ast.Await) and \
                    isinstance(child.value, ast.Call):
                delegated.add(id(child.value))
            if isinstance(child, ast.Call):
                if id(child) in delegated:
                    context = CONTEXT_DELEGATED
                elif id(child) in returned:
                    context = CONTEXT_RETURNED
                elif id(child) in dropped:
                    context = CONTEXT_DROPPED
                else:
                    context = CONTEXT_OTHER
                name = dotted_name(child.func)
                chain = name.split(".") if name else None
                func.calls.append(CallSite(child, chain, context))
            stack.extend(ast.iter_child_nodes(child))

    walk_stmts(body)


def build_index(sources: Iterable[SourceFile]) -> ProgramIndex:
    """Index every parseable source and resolve the call graph."""
    index = ProgramIndex()
    for source in sources:
        index.add_module(source)
    index.finish()
    return index
