"""Which modules each entry point imports.

Every check runs in a fresh interpreter and asserts module names, never
times: in this process other test modules have already imported every
submodule, which would hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import affmon

HEAVY = ("dataclasses", "inspect", "affmon.oracle", "affmon.asymptotics")


def _child(code: str, *flags: str):
    """Run ``code`` in a fresh interpreter, started with ``flags``, on this
    affmon; return what it printed as JSON on its last line."""
    src = str(Path(affmon.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import json, sys\nbefore = set(sys.modules)\n" + code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _new_modules(code: str) -> list[str]:
    """The modules that ``code`` imports beyond interpreter start-up."""
    return _child(code + "\nprint(json.dumps(sorted(set(sys.modules) - before)))")


def test_import_affmon_loads_no_submodule_and_no_argparse():
    new = _new_modules("import affmon")
    assert [m for m in new if m.startswith("affmon.")] == []
    assert "argparse" not in new and "json" not in new


def test_import_cli_skips_dataclasses_the_oracle_and_asymptotics():
    new = _new_modules("import affmon.cli")
    assert "affmon.cli" in new and "affmon.solve3" in new
    assert [m for m in HEAVY if m in new] == []


def test_import_cli_loads_no_typing():
    # Annotations are never evaluated; -S, because a site .pth file may import
    # typing before any affmon code runs.
    assert _child("import affmon.cli\nprint(json.dumps('typing' in sys.modules))", "-S") is False


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["check", "0,1;1,2;3,5", "6,13"], []),
        (["factorize", "0,1;1,2;3,5", "6,13", "--all", "--json"], []),
        (["elasticity", "0,1;1,2;3,5", "6,13", "--approx"], []),
        (["limit", "0,1;1,2;3,5", "6,13"], ["affmon.asymptotics"]),
        (["scan", "0,1;1,2;3,5", "6,13", "--k-max", "3"], ["affmon.asymptotics"]),
        (["limit", "0,1;1,1;3,1", "6,13"], []),  # not a star monoid: refused first
        (["oracle", "0,1;1,2;3,5", "6,13"], ["affmon.oracle"]),
    ],
    ids=["check", "factorize", "elasticity", "limit", "scan", "limit-not-star", "oracle"],
)
def test_each_command_imports_only_what_it_uses(argv, loaded):
    new = _new_modules(
        "import contextlib, io\nfrom affmon.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    main({argv!r})"
    )
    assert [m for m in HEAVY if m in new] == loaded


def test_star_import_and_dir_give_the_public_names():
    public = sorted(affmon.__all__)
    assert len(public) == 58
    names = _child(
        "import affmon\n"
        "fresh_dir = [n for n in dir(affmon) if not n.startswith('_')]\n"
        "namespace = {}\n"
        "exec('from affmon import *', namespace)\n"
        "print(json.dumps([fresh_dir, sorted(n for n in namespace if n != '__builtins__')]))"
    )
    assert names == [public, public]


def test_names_and_submodules_resolve_lazily_without_caching():
    got = _child(
        "import affmon\n"
        "keys = set(vars(affmon))\n"
        "fact = affmon.Factorization((1, 2))\n"
        "egcd = affmon.intlin.ext_gcd\n"
        "same = affmon.Vec2 is sys.modules['affmon.rationals'].Vec2\n"
        "added = sorted(set(vars(affmon)) - keys)\n"
        "print(json.dumps([fact.length, same, added]))"
    )
    fact_length, same, added = got
    assert fact_length == 3 and same
    # Importing a submodule binds it in the package; a public name never is.
    assert {"factorization", "intlin", "rationals"} <= set(added)
    assert set(added).isdisjoint(affmon.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        affmon.no_such_name  # noqa: B018
    assert not hasattr(affmon, "Vec3")
    with pytest.raises(ImportError):
        exec("from affmon import no_such_name", {})
