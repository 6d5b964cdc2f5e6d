"""What each entry point imports, and the package namespace it resolves lazily.

The import sets are read in a fresh interpreter, because this test process
has loaded every module already.
"""

import ast
import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import typing
from enum import Enum
from pathlib import Path

import pytest

import roimeta
from roimeta import records
from roimeta.config import EVAL_KEYS, parse_kv_text
from roimeta.dataio import write_dataset
from roimeta.simulate import SimConfig, generate_experiment

SRC = Path(roimeta.__file__).resolve().parents[1]
GOLDEN_PATH = Path(__file__).parent / "data" / "golden_report.json"
README_PATH = SRC.parent / "README.md"
CI_PATH = SRC.parent / ".github" / "workflows" / "tier1.yml"

# The package's public names, by the module that defines each: what README's
# "Library use" section imports, what CI's in-memory one-liner imports, and the
# exception classes. Every other name is reached as ``roimeta.<module>.<Name>``.
EXPORTS = {
    "baselines": ("aa_calibrate", "campaign_micro_totals"),
    "config": ("AaSettings", "EvaluationConfig", "SubgroupSpec"),
    "dataio": ("dataset_from_rows",),
    "errors": (
        "ConfigError", "DegenerateEffectError", "IngestError", "InsufficientDataError",
        "NoQualifiedCampaignsError", "RoimetaError", "SchemaError", "UndefinedRoiError",
    ),
    "pipeline": ("evaluate",),
    "preprocess": ("qualify",),
    "reportio": ("render_human", "report_to_json"),
    "simulate": ("SimConfig", "generate_experiment"),
    "subgroups": ("resolve_subgroups",),
}

# The report types, by the module that defined each before they moved.
MOVED = {
    "campaigns": ("Arm",),
    "baselines": ("BaselineMethod", "BaselineDecision", "BaselineResult"),
    "preprocess": ("DisqualifiedCampaign", "KeptCampaign", "QualifiedParts",
                   "QualificationRecord"),
    "meta": ("EffectSize", "FixedEffectSummary", "HeterogeneityStats", "RandomEffectSummary",
             "SignificanceResult"),
    "subgroups": ("SubgroupSummary", "SubgroupReport"),
    "pipeline": ("Verdict", "Decision", "TrafficRecommendation", "EffectExclusion",
                 "EvaluationReport"),
}

# The report types defined in ``records`` from the start: the exclusion counts
# and the audit block.
NEW = ("PartExclusions", "ConfigRecord", "AaRecord", "Audit")

# The package's dataclasses. Every report type, result holder, config and
# campaign type is a named tuple, the checked ones through ``records.checked``.
# ``SimConfig`` stays a dataclass: perfbench calls ``dataclasses.replace`` and
# ``dataclasses.asdict`` on it, and ``simulate`` is not on the evaluate path.
DATACLASSES = {"simulate": ("SimConfig",)}

# Runs the CLI with the given arguments, then prints every loaded module.
CLI_PROBE = """
import sys
from roimeta.cli import main
code = main(sys.argv[1:])
print()
print(" ".join(sorted(sys.modules)))
sys.exit(code)
"""


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def cli_modules(*argv: str) -> tuple[int, set[str]]:
    done = run_fresh("-c", CLI_PROBE, *argv)
    assert done.returncode in (0, 1), done.stderr
    return done.returncode, set(done.stdout.splitlines()[-1].split())


def package_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "roimeta" or m.startswith("roimeta.")}


class TestImportSets:
    def test_report_loads_only_the_report_layers(self):
        code, modules = cli_modules("report", str(GOLDEN_PATH))
        assert code == 0
        assert package_modules(modules) == {
            "roimeta", "roimeta.cli", "roimeta.errors", "roimeta.records", "roimeta.reportio",
        }
        # the report types are named tuples: no class is built by ``dataclasses``
        assert not modules & {"statistics", "hashlib", "csv", "dataclasses", "inspect"}

    def test_evaluate_does_not_load_the_simulator(self, tmp_path):
        data = tmp_path / "data.csv"
        write_dataset(generate_experiment(SimConfig(n_campaigns=6, seed=1)), data)
        _, modules = cli_modules("evaluate", str(data), "--aa-treatment-share", "0.1")
        assert "roimeta.pipeline" in modules
        assert "roimeta.simulate" not in modules
        # the median is written out, and the version is the package's own
        assert not modules & {"statistics", "fractions", "decimal", "importlib.metadata"}
        # the configs and campaign types are named tuples: no class is built by ``dataclasses``
        assert not modules & {"dataclasses", "inspect"}

    def test_simulate_does_not_load_the_analysis(self, tmp_path):
        code, modules = cli_modules("simulate", "--seed", "1", "--out", str(tmp_path / "d.csv"))
        assert code == 0
        assert "roimeta.simulate" in modules
        assert not modules & {"roimeta.pipeline", "roimeta.meta", "roimeta.reportio"}

    def test_loading_a_config_loads_no_analysis(self, tmp_path):
        # every key, the A/A keys in one file and the thresholds that replace them in the other
        common = ("confidence_level = 0.9\nhomogeneity_level = 0.05\n"
                  "min_impressions_per_part = 50\nmin_qualified_fraction = 0.8\n"
                  "spend_fractions = 0.5, 0.5\nsubgroup_labels = c1:a, c2:b\n"
                  "phases = 0.1, 0.5\ncurrent_share = 0.1\n")
        texts = {"aa.cfg": "aa_repeats_k = 3\naa_seed = 1\naa_treatment_share = 0.2\n",
                 "thetas.cfg": "micro_theta = 0.0\nmacro_theta = 0.0\n"}
        paths, keys = [], set()
        for name, text in texts.items():
            (tmp_path / name).write_text(common + text, encoding="utf-8")
            paths.append(str(tmp_path / name))
            keys |= set(parse_kv_text(common + text))
        assert keys == set(EVAL_KEYS)
        done = run_fresh("-c", (
            "import sys\n"
            "from roimeta.config import load_evaluation_config\n"
            f"for path in {paths!r}:\n"
            "    load_evaluation_config(path)\n"
            "print(' '.join(sorted(m for m in sys.modules if 'roimeta' in m)))\n"
        ))
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [
            "roimeta", "roimeta.config", "roimeta.errors", "roimeta.records"]

    def test_bare_import_loads_no_submodule_and_a_name_loads_its_module(self):
        done = run_fresh("-c", (
            "import sys, roimeta\n"
            "loaded = lambda: ' '.join(sorted(m for m in sys.modules if 'roimeta' in m))\n"
            "print(loaded())\n"
            "roimeta.ConfigError\n"
            "print(loaded())\n"
            "print(roimeta.meta.EffectSize is roimeta.records.EffectSize)\n"
        ))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["roimeta", "roimeta roimeta.errors", "True"]


class TestNamespaceParity:
    def test_all_is_the_pinned_names(self):
        pinned = [name for names in EXPORTS.values() for name in names]
        assert len(pinned) == len(set(pinned)) == 21
        assert sorted(roimeta.__all__) == sorted(pinned)

    def test_the_names_are_the_documented_imports_and_the_errors(self):
        readme = README_PATH.read_text(encoding="utf-8")
        library_use = readme.split("## Library use")[1].split("\n## ")[0]
        documented = {
            alias.name
            for block in re.findall(r"```python\n(.*?)```", library_use, re.S)
            for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.module == "roimeta"
            for alias in node.names
        }
        ci = re.findall(r"from roimeta import ([\w, ]+);", CI_PATH.read_text(encoding="utf-8"))
        assert ci == ["dataset_from_rows, evaluate, report_to_json"]
        errors = {name for name, obj in vars(roimeta.errors).items()
                  if isinstance(obj, type) and issubclass(obj, Exception)}
        assert set(roimeta.__all__) == documented | set(ci[0].split(", ")) | errors

    def test_every_module_is_an_attribute(self):
        # through the module __getattr__: an imported submodule is an attribute anyway
        for module in pkgutil.iter_modules(roimeta.__path__):
            home = importlib.import_module(f"roimeta.{module.name}")
            assert roimeta.__getattr__(module.name) is home, module.name

    def test_every_name_resolves_to_its_module_object_every_way(self):
        star: dict = {}
        exec("from roimeta import *", star)
        for module, names in EXPORTS.items():
            home = importlib.import_module(f"roimeta.{module}")
            for name in names:
                obj = getattr(home, name)
                one: dict = {}
                exec(f"from roimeta import {name}", one)
                assert all(x is obj for x in (getattr(roimeta, name), one[name], star[name])), name
        assert set(star) - {"__builtins__"} == set(roimeta.__all__)

    def test_moved_types_are_the_records_objects(self):
        moved = {name for names in MOVED.values() for name in names}
        defined = {name for name, obj in vars(records).items()
                   if isinstance(obj, type) and obj.__module__ == records.__name__}
        assert defined == moved | set(NEW) and len(moved) == 20 and len(NEW) == 4
        for module, names in MOVED.items():
            home = importlib.import_module(f"roimeta.{module}")
            for name in names:
                assert getattr(home, name) is getattr(records, name), (module, name)

    def test_report_types_are_named_tuples(self):
        found, todo = set(), [records.EvaluationReport]
        while todo:  # through the annotations, and the tuples and unions in them
            tp = todo.pop()
            todo.extend(typing.get_args(tp))
            if (isinstance(tp, type) and tp.__module__ == records.__name__
                    and not issubclass(tp, Enum) and tp not in found):
                found.add(tp)
                todo.extend(typing.get_type_hints(tp).values())
        assert {tp.__name__ for tp in found} == {
            name for name, obj in vars(records).items() if isinstance(obj, type)
            and obj.__module__ == records.__name__ and not issubclass(obj, Enum)}
        for tp in found:
            assert issubclass(tp, tuple) and tp._fields == tuple(tp.__annotations__), tp

    def test_only_the_simulator_config_is_a_dataclass(self):
        defined = {}
        for module in pkgutil.iter_modules(roimeta.__path__):
            home = importlib.import_module(f"roimeta.{module.name}")
            names = tuple(sorted(
                name for name, obj in vars(home).items() if isinstance(obj, type)
                and obj.__module__ == home.__name__ and dataclasses.is_dataclass(obj)))
            if names:
                defined[module.name] = names
        assert defined == DATACLASSES

    def test_dir_lists_the_names(self):
        assert set(roimeta.__all__) <= set(dir(roimeta))
        assert "__version__" in dir(roimeta)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            roimeta.no_such_name
        with pytest.raises(ImportError):
            exec("from roimeta import no_such_name", {})
