"""The toy parameter report, counted from an assembled pipeline's store."""

from tall import runner
from tall.config import RunConfig
from tall.nn import trainable_param_count
from tall.params_report import param_report


def test_toy_report_matches_the_assembled_default_pipeline():
    model = runner.untrained_tall(RunConfig(), 0)
    report = param_report("toy", model.store)
    assert (report.total, report.trainable) == trainable_param_count(model.store)
    assert (report.total, report.trainable) == (713_888, 329_888)
    assert {r.name: (r.total, r.trainable) for r in report.rows} == {
        "LR-HR Encoder": (75_520, 0),
        "LM Embeddings": (18_816, 0),
        "Adapter 1": (31_584, 31_584),
        "Bridge Decoder 1": (206_080, 206_080),
        "Main LM": (180_608, 0),
        "Adapter 2": (21_056, 21_056),
        "Bridge Encoder 2": (71_168, 71_168),
        "HR-LR Decoder": (109_056, 0),
        "LM Head": (6_400, 0),
    }
