package baselines

import "datalab/internal/benchgen"

// Calibration of every evaluated method. Two principles govern it:
//
//  1. Mechanisms first. Who wins where follows from the pipeline shape:
//     DataLab's validated DSL intermediate removes compile failures and
//     its profiling raises schema understanding uniformly; single-task
//     specialists carry a positive SkillDelta on their home benchmarks
//     (CHESS/PURPLE spend their whole token budget on SQL); AutoGen's
//     free-form NL chat sets Structured=false; interpreter-style methods
//     earn Iterations from execution loops.
//
//  2. Constants set magnitudes only. They are tuned so the measured
//     numbers land near Table I (the measured side is the ledger,
//     internal/experiments/testdata/reproduction.json), but removing a
//     method's mechanism flips outcomes, not retuning.
//
// The paper's Table I ordering this table must reproduce:
//   NL2SQL:   PURPLE ~ CHESS > DAIL-SQL > DataLab   (both suites)
//   NL2DSCode: DataLab > CodeInterpreter > OpenInterpreter > CoML
//   NL2Insight: AgentPoirot ~ DataLab > AutoGen
//   NL2VIS:   DataLab best on VisEval pass; near-tie on nvBench.

// DataLab is the full system in the common evaluation frame.
func DataLab() Method {
	return Method{
		Name: "DataLab",
		Kinds: []benchgen.TaskKind{
			benchgen.TaskNL2SQL, benchgen.TaskNL2DSCode,
			benchgen.TaskNL2Insight, benchgen.TaskNL2VIS,
		},
		// The generalist discount on NL2SQL: DataLab's prompt budget is
		// shared across the whole workflow, where CHESS/PURPLE optimize
		// solely for SQL (the paper's explanation for Table I's NL2SQL
		// column).
		SkillDelta:            map[string]float64{"": 0, "Spider": -0.10, "BIRD": -0.05},
		SchemaUnderstanding:   0.55, // data profiling + DSL grounding
		Iterations:            1,    // execution feedback in agent loop
		Structured:            true,
		DifficultySensitivity: 0.6,
		UsesDSL:               true,
	}
}

// DAILSQL: few-shot example selection for text-to-SQL (Gao et al.).
func DAILSQL() Method {
	return Method{
		Name:                  "DAIL-SQL",
		Kinds:                 []benchgen.TaskKind{benchgen.TaskNL2SQL},
		SkillDelta:            map[string]float64{"Spider": 0.12, "BIRD": -0.03},
		SchemaUnderstanding:   0.5,
		Iterations:            0,
		Structured:            true,
		DifficultySensitivity: 0.5,
	}
}

// PURPLE: logic-skeleton retrieval makes the LLM a better SQL writer;
// the strongest Spider specialist in Table I.
func PURPLE() Method {
	return Method{
		Name:                  "PURPLE",
		Kinds:                 []benchgen.TaskKind{benchgen.TaskNL2SQL},
		SkillDelta:            map[string]float64{"Spider": 0.08, "BIRD": 0.05},
		SchemaUnderstanding:   0.6,
		Iterations:            1,
		Structured:            true,
		DifficultySensitivity: 0.45,
	}
}

// CHESS: contextual schema filtering + candidate selection; the
// strongest BIRD specialist.
func CHESS() Method {
	return Method{
		Name:                  "CHESS",
		Kinds:                 []benchgen.TaskKind{benchgen.TaskNL2SQL},
		SkillDelta:            map[string]float64{"Spider": 0.04, "BIRD": -0.02},
		SchemaUnderstanding:   0.65, // schema filtering is its whole point
		Iterations:            1,
		Structured:            true,
		DifficultySensitivity: 0.42,
	}
}

// CoML: ML-copilot style single-shot code generation.
func CoML() Method {
	return Method{
		Name:                  "CoML",
		Kinds:                 []benchgen.TaskKind{benchgen.TaskNL2DSCode, benchgen.TaskNL2VIS},
		SkillDelta:            map[string]float64{"": -0.02},
		SchemaUnderstanding:   0.4,
		Iterations:            0,
		Structured:            true,
		DifficultySensitivity: 0.55,
	}
}

// CodeInterpreter: sandboxed execution loop (one retry round).
func CodeInterpreter() Method {
	return Method{
		Name:                  "CodeInterpreter",
		Kinds:                 []benchgen.TaskKind{benchgen.TaskNL2DSCode},
		SkillDelta:            map[string]float64{"": -0.02},
		SchemaUnderstanding:   0.45,
		Iterations:            1,
		Structured:            true,
		DifficultySensitivity: 0.65,
	}
}

// OpenInterpreter: similar loop, weaker task grounding.
func OpenInterpreter() Method {
	return Method{
		Name:                  "OpenInterpreter",
		Kinds:                 []benchgen.TaskKind{benchgen.TaskNL2DSCode},
		SkillDelta:            map[string]float64{"": -0.04},
		SchemaUnderstanding:   0.42,
		Iterations:            1,
		Structured:            true,
		DifficultySensitivity: 0.62,
	}
}

// AutoGen: general multi-agent conversation in free-form NL.
func AutoGen() Method {
	return Method{
		Name:                  "AutoGen",
		Kinds:                 []benchgen.TaskKind{benchgen.TaskNL2Insight},
		SkillDelta:            map[string]float64{"": 0.0},
		SchemaUnderstanding:   0.3,
		Iterations:            1,
		Structured:            false, // unstructured NL chat
		DifficultySensitivity: 0.5,
	}
}

// AgentPoirot: insight-specialist agent (InsightBench's own system).
func AgentPoirot() Method {
	return Method{
		Name:                  "AgentPoirot",
		Kinds:                 []benchgen.TaskKind{benchgen.TaskNL2Insight},
		SkillDelta:            map[string]float64{"DABench": 0.02, "InsightBench": 0.01},
		SchemaUnderstanding:   0.5,
		Iterations:            1,
		Structured:            true,
		DifficultySensitivity: 0.45,
	}
}

// LIDA: grammar-agnostic visualization generation.
func LIDA() Method {
	return Method{
		Name:                  "LIDA",
		Kinds:                 []benchgen.TaskKind{benchgen.TaskNL2VIS},
		SkillDelta:            map[string]float64{"nvBench": 0.01, "VisEval": -0.02},
		SchemaUnderstanding:   0.5,
		Iterations:            0,
		Structured:            true,
		DifficultySensitivity: 0.58,
	}
}

// Chat2Vis: direct prompt-to-plot generation.
func Chat2Vis() Method {
	return Method{
		Name:                  "Chat2Vis",
		Kinds:                 []benchgen.TaskKind{benchgen.TaskNL2VIS},
		SkillDelta:            map[string]float64{"nvBench": 0.03, "VisEval": -0.04},
		SchemaUnderstanding:   0.45,
		Iterations:            0,
		Structured:            true,
		DifficultySensitivity: 0.6,
	}
}

// CoML4VIS: CoML adapted for visualization.
func CoML4VIS() Method {
	return Method{
		Name:                  "CoML4VIS",
		Kinds:                 []benchgen.TaskKind{benchgen.TaskNL2VIS},
		SkillDelta:            map[string]float64{"VisEval": 0.02, "nvBench": -0.04},
		SchemaUnderstanding:   0.45,
		Iterations:            1,
		Structured:            true,
		DifficultySensitivity: 0.62,
	}
}

// MethodsFor returns the Table I method lineup for a task family, with
// DataLab first.
func MethodsFor(kind benchgen.TaskKind) []Method {
	switch kind {
	case benchgen.TaskNL2SQL:
		return []Method{DataLab(), DAILSQL(), PURPLE(), CHESS()}
	case benchgen.TaskNL2DSCode:
		return []Method{DataLab(), CoML(), CodeInterpreter(), OpenInterpreter()}
	case benchgen.TaskNL2Insight:
		return []Method{DataLab(), AutoGen(), AgentPoirot()}
	case benchgen.TaskNL2VIS:
		return []Method{DataLab(), LIDA(), Chat2Vis(), CoML4VIS()}
	}
	return nil
}
