"""One sandbox rule: every walk, patch op and check resolves through
``resolve_inside`` and refuses what lands outside the sandbox. Each other
twin-input rule has one home too."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import twinforge
from twinforge.errors import SymlinkOutsideRoot
from twinforge.twin.checks import CheckSpec, ConfigEquals, run_checks
from twinforge.twin.image import capture_image
from twinforge.twin.journal import journal_dir
from twinforge.twin.manifest import scan_tree
from twinforge.twin.patch import AddFile, DeleteFile, PatchDelta, ReplaceFile, SetConfig, apply_patch
from twinforge.twin.sandbox import instantiate_twin

SRC = Path(twinforge.__file__).parent

READERS = {
    "walk": lambda twin: scan_tree(twin.sandbox),
    "add_file": lambda twin: apply_patch(twin, PatchDelta((AddFile("hop1/planted", b"x\n"),))),
    "replace_file": lambda twin: apply_patch(twin, PatchDelta((ReplaceFile("hop1/app.conf", b"x\n"),))),
    "delete_file": lambda twin: apply_patch(twin, PatchDelta((DeleteFile("hop1/app.conf"),))),
    "set_config": lambda twin: apply_patch(twin, PatchDelta((SetConfig("hop1/app.conf", "secret", "x"),))),
    "config_equals": lambda twin: run_checks(twin, CheckSpec((ConfigEquals("hop1/app.conf", "secret", "1"),))),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_an_escape_at_the_end_of_a_chain_of_inside_links_is_refused(twin_tree, tmp_path, reader):
    twin = instantiate_twin(capture_image(twin_tree), tmp_path / "sandbox")
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "app.conf").write_bytes(b"secret=1\n")
    # hop1 -> hop2 -> etc/hop3 stay inside; etc/hop3 -> outside escapes
    (twin.sandbox / "etc" / "hop3").symlink_to(outside)
    (twin.sandbox / "hop2").symlink_to("etc/hop3")
    (twin.sandbox / "hop1").symlink_to("hop2")
    with pytest.raises(SymlinkOutsideRoot):
        READERS[reader](twin)
    assert sorted(p.name for p in outside.iterdir()) == ["app.conf"]
    assert (outside / "app.conf").read_bytes() == b"secret=1\n"
    assert not journal_dir(twin.sandbox).exists()


def _enclosing_functions(tree: ast.AST):
    """Each node of ``tree`` with the name of the function it is in."""
    stack = [(tree, None)]
    while stack:
        node, function = stack.pop()
        yield node, function
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        stack.extend((child, function) for child in ast.iter_child_nodes(node))


def _mentions(node: ast.AST | None, name: str) -> bool:
    """Whether ``node`` names ``name``, bare or as a module attribute."""
    return node is not None and any(
        getattr(n, "id", None) == name or getattr(n, "attr", None) == name for n in ast.walk(node)
    )


def test_only_the_resolver_confines_paths():
    """No module but the resolver calls ``is_relative_to`` or raises
    ``SymlinkOutsideRoot``: a second copy of the rule is how a reader once
    escaped the sandbox."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node, function in _enclosing_functions(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.relative_to(SRC)}:{getattr(node, 'lineno', 0)}"
            if where.startswith("twin/manifest.py") and function == "resolve_inside":
                continue
            if isinstance(node, ast.Attribute) and node.attr == "is_relative_to":
                offenders.append(f"{where} is_relative_to")
            if isinstance(node, ast.Raise) and _mentions(node.exc, "SymlinkOutsideRoot"):
                offenders.append(f"{where} raise SymlinkOutsideRoot")
    assert offenders == []


def _string_args(node: ast.Call) -> list[object]:
    return [a.value for a in node.args if isinstance(a, ast.Constant)]


def test_each_twin_input_rule_has_one_home():
    """Paths are judged only in ``is_safe_rel_path`` and its ``is_os_path``
    part (the workspace's rule), ``key=value`` lines
    are split only in ``config_settings``, and tagged documents are read
    only by ``read_tagged``: two copies of the path rule once disagreed
    on ``bin//new``."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node, function in _enclosing_functions(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{module}:{getattr(node, 'lineno', 0)}"
            if getattr(node, "id", None) == "text_fields" or getattr(node, "attr", None) == "text_fields":
                offenders.append(f"{where} text_fields")
            if isinstance(node, ast.FunctionDef) and node.name == "text_fields":
                offenders.append(f"{where} def text_fields")
            path_rule = module == "twin/manifest.py" and function in ("is_os_path", "is_safe_rel_path")
            if not path_rule and isinstance(node, ast.Constant) and node.value in ("..", "\x00"):
                offenders.append(f"{where} path check {node.value!r}")
            if not path_rule and getattr(node, "attr", None) in ("is_absolute", "parts"):
                offenders.append(f"{where} path check .{node.attr}")
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            method, args = node.func.attr, _string_args(node)
            if not path_rule and method in ("endswith", "startswith", "split") and "/" in args:
                offenders.append(f"{where} path check .{method}('/')")
            config_rule = module == "twin/patch.py" and function == "config_settings"
            if module.startswith("twin/") and not config_rule and method == "partition" and "=" in args:
                offenders.append(f"{where} config line .partition('=')")
    assert offenders == []



# Where the journal may be begun, committed and rolled back: the one
# journaled block, and the lock every command that opens a sandbox holds.
JOURNAL_CALLS = {
    "begin": {("twin/journal.py", "journaled")},
    "commit": {("twin/journal.py", "journaled")},
    "roll_back": {("twin/journal.py", "journaled"), ("twin/sandbox.py", "sandbox_lock")},
}


def test_the_journal_is_begun_and_recovered_in_one_place():
    """``begin`` and ``commit`` are called only by ``journal.journaled``,
    and ``roll_back`` only there and by ``sandbox_lock``. A patch once
    began, rolled back and committed its own journal while a restore kept
    none and only two commands took the lock, so a killed restore left a
    sandbox no command recovered, and a check read a half-patched tree."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node, function in _enclosing_functions(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in JOURNAL_CALLS and (module, function) not in JOURNAL_CALLS[name]:
                    offenders.append(f"{module}:{node.lineno} {name} in {function}")
    assert offenders == []


def test_config_files_are_split_into_lines_in_one_place():
    """Under ``twin/``, ``splitlines`` is never called: ``patch.config_lines``
    is the one line rule of the ``set_config`` writer and the
    ``config_equals`` reader. ``str.splitlines`` also splits at a form
    feed or U+2028, so a rewrite once split ``note=a\\x0cb`` in two and
    turned every CRLF into LF."""
    offenders = []
    for path in sorted((SRC / "twin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if getattr(node, "attr", None) == "splitlines":
                offenders.append(f"twin/{path.name}:{node.lineno} splitlines")
    assert offenders == []

# (module, function) where twin file content may be hashed: the scan's one
# reader and the image's one check, plus the helper both call.
HASHERS = {("twin/manifest.py", "manifest_entry"), ("twin/image.py", "verified_files")}


def test_twin_files_are_hashed_in_one_place():
    """Under ``twin/``, ``hashlib`` is imported only by ``twin/manifest.py``
    and used only in ``sha256_hex``, and ``sha256_hex`` is called only by
    ``manifest_entry`` and ``TwinImage.verified_files``. ``manifest_entry``
    holds the rule that lets a restored twin skip the hash of bytes equal
    to its image's; a second reader that hashed on its own would get
    round it, or copy it wrong."""
    offenders = []
    for path in sorted((SRC / "twin").glob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node, function in _enclosing_functions(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{module}:{getattr(node, 'lineno', 0)}"
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.ImportFrom) and node.module == "hashlib":
                offenders.append(f"{where} from hashlib import")
            if isinstance(node, ast.alias) and node.name == "hashlib" and module != "twin/manifest.py":
                offenders.append(f"{where} import hashlib")
            if name == "hashlib" and (module, function) != ("twin/manifest.py", "sha256_hex"):
                offenders.append(f"{where} hashlib")
            if name == "sha256_hex" and (module, function) not in HASHERS:
                offenders.append(f"{where} sha256_hex")
    assert offenders == []


def test_an_image_is_judged_in_one_place():
    """``posixpath.dirname``, the rule that each entry's parent is a
    directory listed before it, appears only in ``TwinImage.__post_init__``.
    A separate pass once judged an image's entries: ``load_image`` ran it
    and threw the result away, then each restore ran it again."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node, function in _enclosing_functions(ast.parse(path.read_text(encoding="utf-8"))):
            if getattr(node, "attr", None) == "dirname" and (module, function) != ("twin/image.py", "__post_init__"):
                offenders.append(f"{module}:{node.lineno} {ast.unparse(node)}")
    assert offenders == []


def test_locks_are_taken_in_one_place_and_name_no_file():
    """Only ``twin/sandbox.py`` uses ``fcntl``, and no module reads
    ``LOCK_FILENAME`` or names a lock file: each lock is on a directory
    itself. The lock files that once stood in the trees they guarded needed
    a special case in the walk, the patch, the image check and the restore,
    and the workspace's lock file leaked into a twin that was its workspace.
    ``twin/manifest.py`` still defines ``LOCK_FILENAME``, for the benchmark."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        definition = None
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{module}:{getattr(node, 'lineno', 0)}"
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in ("fcntl", "flock") and module != "twin/sandbox.py":
                offenders.append(f"{where} {name}")
            if isinstance(node, ast.Assign) and _mentions(node.targets[0], "LOCK_FILENAME"):
                definition = node.value
            elif name == "LOCK_FILENAME" and not isinstance(getattr(node, "ctx", None), ast.Store):
                offenders.append(f"{where} LOCK_FILENAME")
            if isinstance(node, ast.Constant) and node is not definition and isinstance(node.value, str):
                if ".twin.lock" in node.value or "workspace.lock" in node.value:
                    offenders.append(f"{where} {node.value!r}")
            if node is definition and module != "twin/manifest.py":
                offenders.append(f"{where} defines LOCK_FILENAME")
    assert offenders == []


def test_directories_are_listed_in_one_place():
    """``os.walk`` appears nowhere, and ``os.scandir`` is called only by
    ``walk_tree``: ``os.walk`` skipped a directory it could not list in
    silence, so a capture missed its files and exited 0."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node, function in _enclosing_functions(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{module}:{getattr(node, 'lineno', 0)}"
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name == "walk" and _mentions(node, "os") or isinstance(node, ast.ImportFrom) and node.module == "os":
                offenders.append(f"{where} {ast.unparse(node)}")
            if name == "scandir" and (module, function) != ("twin/manifest.py", "walk_tree"):
                offenders.append(f"{where} scandir")
    assert offenders == []


def test_paths_are_excluded_in_one_place():
    """``fnmatch`` is imported only by ``twin/manifest.py`` and used only in
    ``_exclusion_match``, the compiled form of ``is_excluded``: the walk's
    own second exclusion test once read ``*/cache/**`` one way and
    ``is_excluded`` another, so a capture kept ``a/cache`` and dropped
    everything under it."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node, function in _enclosing_functions(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{module}:{getattr(node, 'lineno', 0)}"
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if isinstance(node, ast.ImportFrom) and node.module == "fnmatch":
                offenders.append(f"{where} from fnmatch import")
            elif isinstance(node, ast.alias):
                if name == "fnmatch" and module != "twin/manifest.py":
                    offenders.append(f"{where} import fnmatch")
            elif name in ("fnmatch", "fnmatchcase") and (module, function) != ("twin/manifest.py", "_exclusion_match"):
                offenders.append(f"{where} {name}")
    assert offenders == []


# (module, function) where a file may be written, replaced or renamed: the
# one artifact writer, the patch's journaled op writes, the journal's renames
# and the restore into an empty sandbox.
WRITERS = {
    ("jsonfile.py", "publish"),
    ("twin/patch.py", "_apply_op"),
    ("twin/journal.py", "record_move"),
    ("twin/journal.py", "_undo"),
    ("twin/journal.py", "commit"),
    ("twin/sandbox.py", "instantiate_twin"),
}

_WRITE_MODE = set("wax+")
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _write(node: ast.AST) -> str | None:
    """What ``node`` writes to the filesystem with, if it is a call of
    ``write_text``, ``write_bytes``, ``os.replace`` or ``.rename``, or an
    ``open`` for writing."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    owner = getattr(getattr(func, "value", None), "id", None)
    if name in ("write_text", "write_bytes", "rename") or (owner, name) == ("os", "replace"):
        return ast.unparse(func)
    if name == "open":
        modes = [*node.args, *(k.value for k in node.keywords if k.arg == "mode")]
        flags = {getattr(n, "attr", None) for n in ast.walk(node)} & _WRITE_FLAGS
        if flags or any(isinstance(getattr(m, "value", None), str) and set(m.value) & _WRITE_MODE for m in modes):
            return ast.unparse(node)
    return None


def test_files_are_written_in_one_place():
    """Every artifact is written by ``jsonfile.publish``, which replaces the
    target whole; only the twin's journaled or restore writes, and the
    journal's renames, touch files themselves, and nothing uses ``shutil``
    (a patch once copied each file it replaced). Ten writers that each
    wrote in place once let a ``gen tabular`` killed between two CSV blocks
    leave a shorter CSV that ``validate`` passed."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node, function in _enclosing_functions(ast.parse(path.read_text(encoding="utf-8"))):
            what = _write(node)
            if what and (module, function) not in WRITERS:
                offenders.append(f"{module}:{node.lineno} {what}")
            if getattr(node, "id", None) == "shutil" or getattr(node, "name", None) == "shutil" or (
                isinstance(node, ast.ImportFrom) and node.module == "shutil"
            ):
                offenders.append(f"{module}:{getattr(node, 'lineno', 0)} shutil")
    assert offenders == []


def _big_number(node: ast.AST) -> bool:
    """``2**k`` with ``k >= 53``, or a number literal from ``2**53 - 1`` up."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return getattr(node.left, "value", None) == 2 and getattr(node.right, "value", 0) >= 53
    value = getattr(node, "value", None)
    return isinstance(node, ast.Constant) and type(value) in (int, float) and abs(value) >= 2**53 - 1


def test_each_dataset_rule_has_one_home():
    """The dataset alone judges cells and pids: ``isfinite`` appears in
    ``ingest/`` only in its column check, the pid bound is written once and
    read only by the pid check, and the process-sample type the capture
    parser once checked pids with stays gone. The reader's own copies of
    these rules once disagreed with the dataset's on pids past 2**53."""
    offenders, bounds = [], []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node, function in _enclosing_functions(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{module}:{getattr(node, 'lineno', 0)}"
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if module.startswith("ingest/") and name == "isfinite" and function != "_checked_column":
                offenders.append(f"{where} isfinite")
            if name == "PID_MAX" and isinstance(getattr(node, "ctx", None), ast.Load) and function != "_checked_pids":
                offenders.append(f"{where} PID_MAX")
            if name in ("ProcessSample", "parse_top_samples"):
                offenders.append(f"{where} {name}")
            if _big_number(node):
                bounds.append(where)
    assert offenders == []
    assert len(bounds) == 1 and bounds[0].startswith("ingest/tabular.py:")


# The functions that make ops and checks from the text fields ``read_tagged`` returns.
TAGGED_LOADERS = {("twin/patch.py", "delta_from_doc"), ("twin/checks.py", "checks_from_doc")}


def test_each_json_record_rule_has_one_home():
    """Only ``jsonfile.py`` looks up annotations or field defaults or names
    the ``format_version`` key, and no module but the reader and the
    tagged-document loaders splats a document into a class (``Cls(**d)``).
    The hand-written copies of the record rule once let a report with
    ``"seeds": "ab"`` or a model with ``"normalizers": []`` crash the CLI
    instead of being refused."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node, function in _enclosing_functions(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{module}:{getattr(node, 'lineno', 0)}"
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if module != "jsonfile.py" and name in ("get_type_hints", "MISSING"):
                offenders.append(f"{where} {name}")
            reader = module == "jsonfile.py" and function == "_read"
            splat = isinstance(node, ast.Call) and any(k.arg is None for k in node.keywords)
            if splat and not reader and (module, function) not in TAGGED_LOADERS:
                offenders.append(f"{where} {ast.unparse(node.func)}(**...)")
            if module != "jsonfile.py" and isinstance(node, ast.Constant) and node.value == "format_version":
                offenders.append(f"{where} 'format_version'")
    assert offenders == []


_DECODERS = {"loads", "load", "JSONDecoder"}


def test_json_is_decoded_in_one_place():
    """``json.loads``, ``json.load`` and ``JSONDecoder`` appear only in
    ``jsonfile.parse_json``: the three hand-written decoders each caught a
    different part of what ``json.loads`` raises, and none a
    ``RecursionError``, so a document of 100000 ``[`` escaped ``main`` as a
    traceback."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node, function in _enclosing_functions(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{module}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                names = {alias.name for alias in node.names} & _DECODERS
                offenders.extend(f"{where} from json import {name}" for name in sorted(names))
            decoder = isinstance(node, ast.Attribute) and node.attr in _DECODERS and _mentions(node.value, "json")
            if decoder or getattr(node, "id", None) == "JSONDecoder":
                if (module, function) != ("jsonfile.py", "parse_json"):
                    offenders.append(f"{where} {ast.unparse(node)}")
    assert offenders == []


# The names ``perfbench/`` reads from a package (``inputs.py`` from ``ingest``
# and ``twin``, ``make_model.py`` from ``tabular``); no package binds any other.
PACKAGE_NAMES = {
    "ingest": {"CONTINUOUS", "DISCRETE", "Column", "Schema", "TabularDataset"},
    "sequence": set(),
    "tabular": {"GanConfig", "model_to_json", "train_gan"},
    "twin": {"AddFile", "DeleteFile", "PatchDelta", "ReplaceFile", "SetConfig"},
    "validate": set(),
}


def test_each_name_has_one_import_path():
    """A package ``__init__`` holds its docstring and the imports of the
    names above, and no module imports a name from a package: the
    re-exports that once stood there made every command load every leg."""
    assert sorted(path.parent.name for path in SRC.glob("*/__init__.py")) == sorted(PACKAGE_NAMES)
    for package, names in PACKAGE_NAMES.items():
        body = ast.parse((SRC / package / "__init__.py").read_text(encoding="utf-8")).body
        docstring, imports = body[0], body[1:]
        assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant), package
        assert all(isinstance(node, ast.ImportFrom) for node in imports), package
        assert {a.asname or a.name for node in imports for a in node.names} == names, package
    packages = {"twinforge", *(f"twinforge.{package}" for package in PACKAGE_NAMES)}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in packages:
                package_dir = SRC.parent.joinpath(*node.module.split("."))
                for alias in node.names:
                    if not (package_dir / f"{alias.name}.py").is_file() and not (package_dir / alias.name).is_dir():
                        offenders.append(f"{path.relative_to(SRC)}:{node.lineno} {node.module}.{alias.name}")
    assert offenders == []
