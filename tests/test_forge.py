import json
from fractions import Fraction

import pytest

from tdlab import forge
from tdlab.forge import (
    FIXTURE_PHI,
    IngestError,
    SearchSpace,
    SplitFormSpec,
    build_split_form,
    export_instance,
    fixture,
    format_instance,
    ingest,
    search_phi,
    validate,
)
from tdlab.linalg import Matrix
from tdlab.tdsystem import NotTDSystemError, ParameterError, QRacahParams

F = Fraction

W1_PARAMS = QRacahParams(1, F(2), F(3), F(5))


class TestSplitForm:
    def test_w1_matrices(self):
        a, astar = build_split_form(SplitFormSpec(W1_PARAMS, (F(1),)))
        assert a == Matrix([["37/6", 0], [1, "13/6"]])
        assert astar == Matrix([["101/10", 1], [0, "29/10"]])

    def test_zero_superdiagonal_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            SplitFormSpec(W1_PARAMS, (F(0),))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="superdiagonal"):
            SplitFormSpec(W1_PARAMS, (F(1), F(2)))

    def test_validate_accepts_w1(self):
        sys = validate(build_split_form(SplitFormSpec(W1_PARAMS, (F(1),))), W1_PARAMS)
        assert sys.dim == 2

    def test_validate_rejects_non_instance(self):
        # generic phi at d = 2 misses the tridiagonality constraint surface
        params = QRacahParams(2, F(2), F(3), F(5))
        candidate = build_split_form(SplitFormSpec(params, (F(1), F(1))))
        with pytest.raises(NotTDSystemError):
            validate(candidate, params)


class TestSearch:
    def test_grid_search_d1(self):
        found = search_phi(W1_PARAMS, SearchSpace(numerators=(1, 2), denominators=(1,)))
        assert found == [(F(1),), (F(2),)]

    def test_d1_every_nonzero_phi_works(self):
        found = search_phi(W1_PARAMS)
        space = SearchSpace()
        assert len(found) == len(list(space.candidates(1)))

    def test_small_grid_fails_at_d2(self):
        params = QRacahParams(2, F(2), F(3), F(5))
        space = SearchSpace(numerators=(-1, 1), denominators=(1, 2))
        with pytest.raises(NotTDSystemError, match="no instance found"):
            search_phi(params, space)

    def test_affine_family_search_d2(self):
        # the constraint surface is the line (t - 126, t)
        params = QRacahParams(2, F(2), F(3), F(5))
        space = SearchSpace(
            numerators=(125, 126, 127, 128),
            denominators=(1,),
            family_base=(F(-126), F(0)),
            family_step=(F(1), F(1)),
        )
        found = search_phi(params, space)
        assert FIXTURE_PHI[2] in found
        assert (F(-126 + 125), F(125)) in found

    def test_degenerate_params_fail_before_search(self):
        with pytest.raises(ParameterError):
            QRacahParams(1, F(1), F(3), F(5))


class TestFixtures:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fixture_builds(self, d):
        sys = fixture(d)
        assert sys.d == d
        assert sys.params.q == 2

    def test_fixture_phi_on_constraint_surface(self):
        phi = FIXTURE_PHI[3]
        assert phi[0] == phi[2] - F(1323, 2)
        assert phi[1] == F(25, 21) * phi[2] - F(9945, 64)


class TestRoundTrip:
    def test_export_ingest_byte_identical(self, tmp_path):
        sys = fixture(2)
        path = tmp_path / "instance.json"
        export_instance(sys, path)
        first = path.read_bytes()
        reread = ingest(path)
        export_instance(reread, path)
        assert path.read_bytes() == first

    def test_exported_values(self, tmp_path):
        sys = fixture(1)
        data = json.loads(format_instance(sys))
        assert data["q"] == "2"
        assert data["A"] == [["37/6", "0"], ["1", "13/6"]]
        assert data["Astar"] == [["101/10", "1"], ["0", "29/10"]]

    def test_malformed_rational_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        data = json.loads(format_instance(fixture(1)))
        data["q"] = "1/0"
        path.write_text(json.dumps(data))
        with pytest.raises(IngestError, match="malformed"):
            ingest(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        data = json.loads(format_instance(fixture(1)))
        del data["Astar"]
        path.write_text(json.dumps(data))
        with pytest.raises(IngestError):
            ingest(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        data = json.loads(format_instance(fixture(2)))
        data["d"] = 1
        path.write_text(json.dumps(data))
        with pytest.raises(IngestError, match="shape"):
            ingest(path)

    def test_oversized_d_rejected_before_parameters(self, tmp_path, monkeypatch):
        path = tmp_path / "big.json"
        data = json.loads(format_instance(fixture(1)))
        data["d"] = 30000
        path.write_text(json.dumps(data))

        def no_params(*args, **kwargs):
            raise AssertionError("QRacahParams built for a mismatched shape")

        monkeypatch.setattr(forge, "QRacahParams", no_params)
        with pytest.raises(IngestError, match="shape"):
            ingest(path)

    @pytest.mark.parametrize("d", ["1", 1.5, None])
    def test_non_integer_d_rejected(self, tmp_path, d):
        path = tmp_path / "bad.json"
        data = json.loads(format_instance(fixture(1)))
        data["d"] = d
        path.write_text(json.dumps(data))
        with pytest.raises(IngestError):
            ingest(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(IngestError, match="cannot read"):
            ingest(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(IngestError, match="JSON object"):
            ingest(path)

    def test_matrices_must_validate(self, tmp_path):
        path = tmp_path / "bad.json"
        data = json.loads(format_instance(fixture(1)))
        data["A"] = [["1", "0"], ["0", "2"]]  # diagonal: not a valid instance
        path.write_text(json.dumps(data))
        with pytest.raises(NotTDSystemError):
            ingest(path)
