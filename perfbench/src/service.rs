//! The service under test, as an analyst reaches it: an in-process `Engine`.

use std::sync::Arc;

use tagdm_data::dataset::Dataset;
use tagdm_data::generator::MovieLensStyleGenerator;
use tagdm_engine::{Engine, EngineConfig, SolveResponse};

use crate::inputs::{Call, Inputs, DATASET};

pub struct Service {
    pub engine: Arc<Engine>,
}

impl Service {
    /// Set-up: generate the corpus, register it, start a 2-worker engine and
    /// build the resident contexts.
    pub fn start(inputs: &Inputs) -> Result<Service, String> {
        let dataset = MovieLensStyleGenerator::new(inputs.corpus.clone()).generate();
        let engine = Arc::new(Engine::new(EngineConfig::default().with_workers(2)));
        engine.register_dataset(DATASET, dataset);
        for spec in &inputs.resident {
            engine
                .context(spec)
                .map_err(|e| format!("resident context build failed: {e}"))?;
        }
        Ok(Service { engine })
    }

    pub fn execute(&self, call: &Call) -> Vec<SolveResponse> {
        if call.requests.len() == 1 {
            vec![self.engine.solve(call.requests[0].clone())]
        } else {
            self.engine.solve_batch(call.requests.clone())
        }
    }

    pub fn dataset(&self) -> Arc<Dataset> {
        self.engine
            .dataset(DATASET)
            .expect("the engine registers the corpus during set-up")
    }
}
