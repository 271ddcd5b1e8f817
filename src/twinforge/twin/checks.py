"""Manifest assertions evaluated against a live twin."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

from twinforge.errors import MalformedChecks
from twinforge.jsonfile import read_json, read_tagged, read_text
from twinforge.twin.manifest import FILE, is_safe_rel_path, manifest_entry, resolve_inside, walk_tree
from twinforge.twin.patch import config_lines, config_settings, config_text_fault
from twinforge.twin.sandbox import TwinState, sandbox_lock


@dataclass(frozen=True)
class FileExists:
    path: str


@dataclass(frozen=True)
class HashEquals:
    path: str
    sha256: str


@dataclass(frozen=True)
class ConfigEquals:
    file: str
    key: str
    value: str

    def __post_init__(self) -> None:
        if fault := config_text_fault(self.key, self.value):
            raise MalformedChecks(fault)


Assertion = Union[FileExists, HashEquals, ConfigEquals]


@dataclass(frozen=True)
class CheckSpec:
    assertions: tuple[Assertion, ...]

    def __post_init__(self) -> None:
        if not self.assertions:
            raise ValueError("check spec needs at least one assertion")


@dataclass(frozen=True)
class CheckResult:
    assertion: Assertion
    passed: bool
    detail: str


def _config_lines(root: Path, rel: str) -> list[str] | None:
    """The line texts of the config file ``rel`` of the resolved sandbox
    ``root``, split by ``config_lines``, or None when it is not a file. A
    path that resolves outside the sandbox, through a link or otherwise,
    is refused."""
    target = resolve_inside(root, rel)
    return config_lines(read_text(target))[::2] if target.is_file() else None


def run_checks(twin: TwinState, checks: CheckSpec) -> tuple[CheckResult, ...]:
    """Pure evaluation against the live tree: one walk for the file list,
    a read of only the files a ``HashEquals`` names (hashed unless their
    bytes equal the twin's ``image_files``), and one read of each config
    file named, under the sandbox lock, so a check never reads a tree a
    patch or a restore is half-way through."""
    with sandbox_lock(twin.sandbox):
        root = twin.sandbox.resolve()
        kinds = dict(walk_tree(twin.sandbox))
        configs: dict[str, list[str] | None] = {}
        results: list[CheckResult] = []
        for assertion in checks.assertions:
            if isinstance(assertion, FileExists):
                ok = kinds.get(assertion.path) == FILE
                detail = "present" if ok else "no such file"
            elif isinstance(assertion, HashEquals):
                if kinds.get(assertion.path) != FILE:
                    ok, detail = False, "no such file"
                else:
                    sha256 = manifest_entry(twin.sandbox, assertion.path, FILE, twin.image_files)[0].sha256
                    ok = sha256 == assertion.sha256
                    detail = "hash matches" if ok else f"expected {assertion.sha256}, got {sha256}"
            else:
                if assertion.file not in configs:
                    configs[assertion.file] = _config_lines(root, assertion.file)
                lines = configs[assertion.file]
                if lines is None:
                    ok, detail = False, "no such config file"
                elif not (settings := config_settings(lines, assertion.key)):
                    ok, detail = False, f"no key {assertion.key!r}"
                else:
                    found = settings[-1][2]
                    ok = found == assertion.value
                    detail = "value matches" if ok else f"expected {assertion.value!r}, got {found!r}"
            results.append(CheckResult(assertion, ok, detail))
        return tuple(results)


_CHECKS = {"file_exists": FileExists, "hash_equals": HashEquals, "config_equals": ConfigEquals}


def checks_from_doc(doc: object) -> CheckSpec:
    assertions: list[Assertion] = []
    for cls, args, where in read_tagged(doc, "check", _CHECKS, MalformedChecks):
        path = args.get("file", args.get("path"))
        if not is_safe_rel_path(path):
            raise MalformedChecks(f"{where}: path {path!r} must be relative and normalized")
        assertions.append(cls(**args))
    if not assertions:
        raise MalformedChecks("the file must hold a non-empty JSON list of checks")
    return CheckSpec(tuple(assertions))


def load_checks(path: str | Path) -> CheckSpec:
    return checks_from_doc(read_json(path, MalformedChecks))
