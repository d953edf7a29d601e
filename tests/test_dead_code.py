"""Dead-code guards over the library source, read with ast: no linter is a
dependency of this project."""

import ast
import pathlib

import moekgc

SRC = pathlib.Path(moekgc.__file__).parent


def parsed_modules() -> dict:
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def test_no_library_module_has_an_unused_import():
    unused = []
    for module, tree in parsed_modules().items():
        bound = {}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", "") != "__future__"):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}:{line} {name}" for name, line in bound.items() if name not in used]
    assert unused == []


def referenced_names(trees) -> set:
    """Every name the modules read, bare or as an attribute."""
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return referenced


def test_every_private_module_level_function_is_referenced():
    trees = parsed_modules()
    referenced = referenced_names(trees)
    unreferenced = [f"{module}: {node.name}" for module, tree in trees.items() for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and node.name not in referenced]
    assert unreferenced == []


# defaulted parameters of public functions that no library call passes, and
# why each stays
_UNPASSED_OK = {
    "cli.main(argv=)": "the console entry reads sys.argv; tests pass argv",
    "fusion.FusionModel.fuse(mi=)": "the traced public wrapper over _fuse, which takes mi",
    "trainer.save_checkpoint(optimizer=)": "a checkpoint field that a resumed run will pass",
    "trainer.save_checkpoint(extra=)": "a checkpoint field that a resumed run will pass",
}


def public_functions(tree):
    """(name, node, bound) for each public module-level function and each
    public method of a public class; bound is 1 for a method, whose call
    binds self or cls."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, 1


def test_every_defaulted_parameter_of_a_public_function_is_passed_by_the_library():
    # an option that only tests pass is a second code path to keep: calls
    # are matched by the called name, a keyword passes its parameter, n
    # positional arguments pass the first n, and *args or **kw pass all
    trees = parsed_modules()
    keywords, positional = {}, {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
            spread = (any(isinstance(a, ast.Starred) for a in call.args)
                      or any(k.arg is None for k in call.keywords))
            positional[name] = max(positional.get(name, 0),
                                   float("inf") if spread else len(call.args))
    unpassed = []
    for module, tree in trees.items():
        for name, fn, bound in public_functions(tree):
            params = (fn.args.posonlyargs + fn.args.args)[bound:]
            defaulted = [(i, p.arg) for i, p in enumerate(params)
                         if i >= len(params) - len(fn.args.defaults)]
            defaulted += [(float("inf"), p.arg) for p, d in
                          zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            unpassed += [f"{module[:-3]}.{name}({arg}=)" for i, arg in defaulted
                         if arg not in keywords.get(fn.name, ())
                         and i >= positional.get(fn.name, 0)]
    assert sorted(unpassed) == sorted(_UNPASSED_OK)


# public functions and methods that no library module reads, and why each
# stays
_UNREFERENCED_OK = {
    "autodiff.parameter": "the leaf tensor the tests' gradient checks build",
    "autodiff.tape_size": "perfbench counts tape nodes per step with it",
    "autodiff.using_dtype": "the float64 gradient checks run the tape under it",
    "fusion.mutual_information": "the numpy MI oracle the fusion tests hold the batch kernel to",
    "fusion.batch_mutual_information": "the acceptance gate tests the MI kernel through it (c03)",
    "fusion.inter_modality_fuse": "the acceptance gate's fusion oracle (c02)",
    "kgdata.FilterIndex.true_tails": "perfbench tallies filter lookups through it",
    "kgdata.FilterIndex.true_heads": "perfbench tallies filter lookups through it",
    "sampling.classify": "the acceptance gate's scalar entropy classes (c04)",
    "trainer.Adam.load_state": "restores the moments a checkpoint holds, for a resumed run",
}


def autodiff_uses(trees) -> set:
    """The autodiff names the other modules read, as ad.<name> or imported
    from .autodiff, and the ops that Tensor's operators and .sum() call: a
    use elsewhere inside autodiff.py does not count, so an op that only
    tests call cannot hide behind another op."""
    used = set()
    for module, tree in trees.items():
        if module == "autodiff.py":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "ad"):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "autodiff":
                used.update(alias.name for alias in node.names)
    tensor = next(node for node in trees["autodiff.py"].body
                  if isinstance(node, ast.ClassDef) and node.name == "Tensor")
    used.update(node.func.id for node in ast.walk(tensor)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name))
    return used


def test_every_public_function_is_referenced_by_the_library():
    # a public function that only tests call is code kept for them alone;
    # names are matched, bare or as an attribute, anywhere in the library,
    # but autodiff's module-level functions only as autodiff_uses finds them
    trees = parsed_modules()
    referenced, from_autodiff = referenced_names(trees), autodiff_uses(trees)
    unreferenced = []
    for module, tree in trees.items():
        for name, fn, bound in public_functions(tree):
            uses = from_autodiff if module == "autodiff.py" and not bound else referenced
            if fn.name not in uses:
                unreferenced.append(f"{module[:-3]}.{name}")
    assert sorted(unreferenced) == sorted(_UNREFERENCED_OK)


def test_every_module_level_name_is_read_by_the_library():
    # a constant left behind by a removed option: a name bound at module
    # level must be read, bare or as an attribute, by some library module;
    # dunder names such as __version__ are read by tools, not the library
    trees = parsed_modules()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            unread += [f"{module[:-3]}.{name.id}" for target in targets
                       for name in ast.walk(target) if isinstance(name, ast.Name)
                       and not (name.id.startswith("__") and name.id.endswith("__"))
                       and name.id not in read]
    assert unread == []
