import hashlib
import json
import os

import numpy as np
import pytest

from ddispatch.errors import ValidationError
from ddispatch.fileio import (atomic_write_text, envelope, model_digest, read_csv,
                              read_json, write_csv, write_json)

EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
        1.0 / 3.0, -2.0 / 3.0, 0.1, 123456789.123456789, 1e-7, 1e16 + 2.0]


class TestWriteCsv:
    @pytest.mark.parametrize("spec", ["%.17g", "%.10g", "%.8g", "%.6g"])
    def test_cells_match_format_spec(self, spec):
        # each cell reads exactly as the f-string with the same spec
        ints = np.arange(len(EDGE)) - 3
        text = write_csv(None, ["x", "k"], [np.array(EDGE), ints], [spec, "%d"])
        f = spec[1:]
        expected = "x,k\n" + "".join(f"{v:{f}},{k}\n" for v, k in zip(EDGE, ints))
        assert text == expected

    def test_random_floats_match_format_spec(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=2000) * 10.0 ** rng.integers(-320, 300, 2000)
        text = write_csv(None, ["v"], [values], ["%.17g"])
        assert text == "v\n" + "".join(f"{v:.17g}\n" for v in values)
        assert np.array_equal(np.array(text.split()[1:], dtype=float), values)

    def test_preamble_opens_with_format_version(self):
        text = write_csv(None, ["t_s", "y"], [[0.0, 60.0], [1.5, 2.5]],
                         ["%.17g", "%.17g"], preamble={"period_s": 60.0})
        assert text == "# format_version=1\n# period_s=60.0\nt_s,y\n0,1.5\n60,2.5\n"

    def test_no_columns_is_header_only(self):
        assert write_csv(None, ["theta_rad"], [], []) == "theta_rad\n"

    def test_writes_the_returned_text(self, tmp_path):
        path = tmp_path / "t.csv"
        text = write_csv(path, ["a"], [[1, 2]], ["%d"])
        assert path.read_text() == text == "a\n1\n2\n"


class TestReadCsv:
    def test_round_trip(self):
        text = write_csv(None, ["t_s", "y"], [[0.0, 1.0], [EDGE[2], EDGE[5]]],
                         ["%.17g", "%.17g"], preamble={"period_s": 1.0})
        preamble, header, data = read_csv(text)
        assert preamble == {"format_version": "1", "period_s": "1.0"}
        assert header == ["t_s", "y"]
        assert np.array_equal(data, [[0.0, EDGE[2]], [1.0, EDGE[5]]])

    @pytest.mark.parametrize("text", [
        "", "t_s,y\n", "t_s,y\n0,1,2\n", "t_s,y\n0\n", "t_s,y\n0,nan\n",
        "t_s,y\n0,inf\n", "t_s,y\n0,x\n", "t_s,y\n0,1\n1\n"])
    def test_rejects(self, text):
        with pytest.raises(ValidationError):
            read_csv(text)

    @pytest.mark.parametrize("version", ["0", "2", "99"])
    def test_rejects_other_versions(self, version):
        with pytest.raises(ValidationError, match=f"unsupported format version {version}$"):
            read_csv(f"# format_version={version}\nt_s,y\n0,1\n")

    def test_no_version_reads_as_this_one(self):
        assert read_csv("t_s,y\n0,1\n")[1] == ["t_s", "y"]
        assert read_csv("# format_version=1\nt_s,y\n0,1\n")[1] == ["t_s", "y"]


class TestJson:
    def test_file_is_the_canonical_form(self, tmp_path):
        doc = envelope("thing", values=np.array([0.1, -0.0, 5e-324]).tolist(),
                       nested={"b": 1, "a": [True, None, "x"]})
        path = tmp_path / "d.json"
        write_json(path, doc)
        raw = path.read_bytes()
        assert raw == json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        assert read_json(path) == doc
        assert model_digest(doc) == hashlib.sha256(raw).hexdigest()

    def test_envelope(self):
        assert envelope("metrics", metrics={}) == {
            "format_version": 1, "payload": "metrics", "metrics": {}}


class TestAtomicWrite:
    def test_failed_rename_leaves_the_original(self, tmp_path, monkeypatch):
        # the text goes to a temporary file that is removed when the rename
        # fails, so the old file stays whole and nothing is left beside it
        path = tmp_path / "d.json"
        path.write_text("old")

        def refuse(src, dst):
            assert os.path.exists(src)
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_text(path, "new")
        assert path.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json"]
