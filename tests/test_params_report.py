"""The toy parameter report against live parameter-store enumeration."""

from tall import config as C
from tall.models import CausalLM, Translator
from tall.nn import trainable_param_count
from tall.params_report import param_report
from tall.pipeline import TallModel


def test_toy_report_matches_the_assembled_default_pipeline():
    cfg = C.RunConfig()
    tall_cfg = C.tall_config(cfg)
    model = TallModel.assemble(
        tall_cfg, C.build_world(cfg),
        Translator.init(C.translator_config(cfg, "lr2hr"), 0),
        Translator.init(C.translator_config(cfg, "hr2lr"), 0),
        CausalLM.init(C.llm_config(cfg), 0), seed=0)
    report = param_report("toy", tall_cfg)
    assert (report.total, report.trainable) == trainable_param_count(model.store)
    assert (report.total, report.trainable) == (713_888, 329_888)
