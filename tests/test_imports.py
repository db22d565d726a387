"""What `import aog` and each `aog` command load, each seen from a new process.

The core (errors, domains, grammar, normalize, parsing) is imported with
the package; the frontends, logic export and file I/O on first use.  The
other tests share one interpreter, where every module is loaded already,
so these run their checks in a fresh one.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import aog
from aog import save_grammar, save_sample

CORE = ["aog", "aog.domains", "aog.errors", "aog.grammar", "aog.normalize", "aog.parsing"]
LAZY = ["logic_export", "sat", "scfg", "serialize", "spn"]
FRONTENDS = {"aog.logic_export", "aog.sat", "aog.scfg", "aog.spn"}


def fresh(code: str, cwd=None):
    """The JSON value that code prints last, run in a new interpreter.

    code may use `loaded()`, the sorted names of the aog modules imported
    so far.
    """
    src = str(Path(aog.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    prelude = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'aog' or m.startswith('aog.'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        cwd=cwd, env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_only_the_core():
    assert fresh("import aog\nprint(json.dumps(loaded()))") == CORE


def test_lazy_names_are_their_modules_objects():
    report = fresh(
        """
        import importlib
        import aog
        table = aog._MODULE_OF
        same = all(
            getattr(aog, name) is getattr(importlib.import_module("aog." + module), name)
            for name, module in table.items()
        )
        cached = all(name in vars(aog) for name in table)
        print(json.dumps({"modules": sorted(set(table.values())), "same": same, "cached": cached}))
        """
    )
    assert report == {"modules": LAZY, "same": True, "cached": True}


def test_submodules_resolve_as_attributes():
    report = fresh(
        """
        import importlib
        import aog
        names = ["domains", "errors", "grammar", "normalize", "parsing", *%r]
        print(json.dumps([getattr(aog, n) is importlib.import_module("aog." + n) for n in names]))
        """ % LAZY
    )
    assert report == [True] * 10


def test_star_import_and_dir_list_every_public_name():
    report = fresh(
        """
        import aog
        before = loaded()
        missing_from_dir = sorted(set(aog.__all__) - set(dir(aog)))
        names = {}
        exec("from aog import *", names)
        public = sorted(n for n in names if n != "__builtins__")
        print(json.dumps({
            "before": before,
            "all": sorted(aog.__all__),
            "bound": public,
            "same": all(names[n] is getattr(aog, n) for n in public),
            "dir": missing_from_dir,
            "after": loaded(),
        }))
        """
    )
    assert report["before"] == CORE
    assert report["bound"] == report["all"]
    assert report["same"] and report["dir"] == []
    assert set(report["all"]) >= set(aog._MODULE_OF) | set(LAZY) | {"Grammar", "parse", "to_gcnf"}
    assert report["after"] == sorted(CORE + ["aog." + m for m in LAZY])


def test_unknown_name_is_an_attribute_error():
    report = fresh(
        """
        import aog
        try:
            aog.no_such_name
        except AttributeError as exc:
            error = str(exc)
        print(json.dumps([error, hasattr(aog, "no_such_name"), loaded()]))
        """
    )
    assert report == ["module 'aog' has no attribute 'no_such_name'", False, CORE]


def test_the_package_hooks_answer_where_every_module_is_loaded():
    import aog.sat

    assert aog.__getattr__("sat") is aog.sat
    assert set(aog.__all__) <= set(dir(aog))


# ------------------------------------------------------------- aog commands


@pytest.fixture
def files(tmp_path, line_drawing):
    from aog import DataSample, TerminalInstance

    save_grammar(line_drawing, tmp_path / "g.json")
    x = DataSample((TerminalInstance("d0", "dot", (0, 0)),))
    save_sample(x, line_drawing.domain, tmp_path / "x.json")
    (tmp_path / "g.scfg").write_text("X -> X X [0.4]\nX -> a [0.6]\n")
    (tmp_path / "n.spn").write_text("r sum a 1.0 b 1.0\na ind 0 +\nb ind 0 -\n")
    (tmp_path / "f.cnf").write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    return tmp_path


def main_in_fresh_process(argv, cwd):
    """main(argv)'s exit code and the aog modules loaded after it."""
    return fresh(
        f"""
        import contextlib, io
        from aog.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main({argv!r})
        print(json.dumps([code, loaded()]))
        """,
        cwd=cwd,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "g.json", "x.json"],
        ["validate", "g.json"],
        ["normalize", "g.json", "-o", "n.json"],
        ["sample", "g.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_core_commands_load_no_frontend(files, argv):
    code, modules = main_in_fresh_process(argv, files)
    assert code == 0
    assert "aog.serialize" in modules
    assert FRONTENDS.isdisjoint(modules)


@pytest.mark.parametrize(
    "argv, module",
    [
        (["convert", "scfg", "g.scfg", "-o", "out.json"], "aog.scfg"),
        (["convert", "spn", "n.spn", "-o", "out.json"], "aog.spn"),
        (["convert", "sat", "f.cnf", "-o", "out.json"], "aog.sat"),
        (["emit", "fol", "g.json"], "aog.logic_export"),
        (["emit", "slp", "g.json"], "aog.logic_export"),
    ],
    ids=["convert-scfg", "convert-spn", "convert-sat", "emit-fol", "emit-slp"],
)
def test_convert_and_emit_load_their_module(files, argv, module):
    code, modules = main_in_fresh_process(argv, files)
    assert code == 0
    assert FRONTENDS & set(modules) == {module}
