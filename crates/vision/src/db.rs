//! The reference-object database — the training-time artifact the
//! pipeline recognizes against, plus the end-to-end recognition helper
//! used by examples and the real-compute runtime.
//!
//! Training mirrors the paper's offline stage: detect and describe
//! features on a canonical reference view, partition them per object,
//! fit PCA + GMM over all descriptors, Fisher-encode each object, and
//! index the Fisher vectors in LSH tables. At query time a frame flows
//! through the same five stages the services implement:
//! detect/describe (`sift`) → PCA + Fisher (`encoding`) → LSH candidate
//! lookup (`lsh`) → ratio-test matching + RANSAC pose (`matching`).

use simcore::SimRng;

use crate::descriptor::{describe_all, Descriptor};
use crate::fisher::FisherEncoder;
use crate::gmm::DiagGmm;
use crate::image::GrayImage;
use crate::keypoints::{detect, DetectorParams};
use crate::lsh::LshIndex;
use crate::matching::{match_descriptors, MatchParams};
use crate::pca::Pca;
use crate::ransac::{project_bbox, ransac_homography, BBox, ObjectPose, RansacParams};
use crate::scene::SceneGenerator;

/// One trained reference object.
#[derive(Debug, Clone)]
pub struct ReferenceObject {
    pub name: String,
    /// Descriptors in reference-view coordinates, quantised
    /// ([`Descriptor::quantized`]) like every descriptor on the wire.
    pub descriptors: Vec<Descriptor>,
    /// Reference-view bounding box.
    pub bbox: BBox,
}

/// A recognized object in a query frame.
#[derive(Debug, Clone)]
pub struct Recognition {
    pub name: String,
    pub pose: ObjectPose,
    /// LSH cosine similarity of the frame's Fisher vector to the object's.
    pub fisher_similarity: f64,
}

/// The full trained database.
pub struct ReferenceDb {
    objects: Vec<ReferenceObject>,
    pca: Pca,
    encoder: FisherEncoder,
    lsh: LshIndex,
    /// `lsh` item id → object index.
    lsh_to_object: Vec<usize>,
    detector: DetectorParams,
}

/// Training hyper-parameters (sized for the synthetic scene).
#[derive(Debug, Clone, Copy)]
pub struct TrainParams {
    pub pca_dims: usize,
    pub gmm_components: usize,
    pub gmm_iters: usize,
    pub lsh_tables: usize,
    pub lsh_bits: usize,
}

impl Default for TrainParams {
    fn default() -> Self {
        TrainParams {
            pca_dims: 16,
            gmm_components: 4,
            gmm_iters: 15,
            lsh_tables: 4,
            lsh_bits: 8,
        }
    }
}

impl ReferenceDb {
    /// Train from a scene generator's canonical reference view.
    pub fn train(scene: &SceneGenerator, params: TrainParams, rng: &mut SimRng) -> ReferenceDb {
        let detector = DetectorParams::default();
        let ref_img = scene.reference_frame();
        let (pyr, kps) = detect(&ref_img, &detector);
        let descs = describe_all(&pyr, &kps);
        assert!(
            descs.len() >= params.gmm_components * 4,
            "reference view too feature-poor to train on ({} descriptors)",
            descs.len()
        );

        // Partition descriptors per object by reference-view bbox
        // (objects listed later occlude earlier ones, so assign each
        // keypoint to the last containing object — same painter's order
        // as the renderer).
        let mut objects: Vec<ReferenceObject> = scene
            .objects()
            .iter()
            .map(|o| ReferenceObject {
                name: o.name.to_string(),
                descriptors: Vec::new(),
                bbox: BBox {
                    x0: o.x as f64,
                    y0: o.y as f64,
                    x1: (o.x + o.w) as f64,
                    y1: (o.y + o.h) as f64,
                },
            })
            .collect();
        for d in &descs {
            let (x, y) = (d.keypoint.x as f64, d.keypoint.y as f64);
            let owner = objects
                .iter()
                .rposition(|o| x >= o.bbox.x0 && x < o.bbox.x1 && y >= o.bbox.y0 && y < o.bbox.y1);
            // An object keeps its descriptors as a frame's descriptors
            // reach `matching`: through SIFT's byte format.
            if let Some(i) = owner {
                objects[i].descriptors.push(d.quantized());
            }
        }

        // Fit PCA + GMM over the pooled raw descriptor population.
        let pooled: Vec<Vec<f64>> = descs
            .iter()
            .map(|d| d.v.iter().map(|&x| x as f64).collect())
            .collect();
        let pca = Pca::fit(&pooled, params.pca_dims, rng);
        let reduced = pca.transform_batch(&pooled);
        let gmm = DiagGmm::fit(&reduced, params.gmm_components, params.gmm_iters, rng);
        let encoder = FisherEncoder::new(gmm);

        // Fisher-encode each object's descriptor set and index it.
        let mut lsh = LshIndex::new(encoder.dim(), params.lsh_tables, params.lsh_bits, rng);
        let mut lsh_to_object = Vec::new();
        for (i, obj) in objects.iter().enumerate() {
            let obj_reduced: Vec<Vec<f64>> = obj
                .descriptors
                .iter()
                .map(|d| pca.transform(&d.v.iter().map(|&x| x as f64).collect::<Vec<_>>()))
                .collect();
            let fv = encoder.encode(&obj_reduced);
            lsh.insert(fv);
            lsh_to_object.push(i);
        }

        ReferenceDb {
            objects,
            pca,
            encoder,
            lsh,
            lsh_to_object,
            detector,
        }
    }

    pub fn objects(&self) -> &[ReferenceObject] {
        &self.objects
    }

    pub fn detector_params(&self) -> &DetectorParams {
        &self.detector
    }

    /// Length of the Fisher vectors [`Self::encode_frame`] produces and
    /// [`Self::lsh_candidates`] accepts.
    pub fn fisher_dim(&self) -> usize {
        self.lsh.dim()
    }

    /// Fisher-encode a set of raw 128-d descriptors.
    pub fn encode_frame(&self, descs: &[Descriptor]) -> Vec<f64> {
        let reduced: Vec<Vec<f64>> = descs
            .iter()
            .map(|d| {
                self.pca
                    .transform(&d.v.iter().map(|&x| x as f64).collect::<Vec<_>>())
            })
            .collect();
        self.encoder.encode(&reduced)
    }

    /// LSH shortlist for a Fisher vector: `(object index, cosine
    /// similarity)` ranked by similarity — the `lsh` service's query.
    pub fn lsh_candidates(&self, fisher: &[f64], k: usize) -> Vec<(usize, f64)> {
        self.lsh
            .query(fisher, k)
            .into_iter()
            .map(|(lsh_id, sim)| (self.lsh_to_object[lsh_id], sim))
            .collect()
    }

    /// Match a descriptor set against one candidate object and estimate
    /// its pose — the `matching` service's per-candidate work.
    pub fn match_object(
        &self,
        object_idx: usize,
        descs: &[Descriptor],
        fisher_similarity: f64,
        rng: &mut SimRng,
    ) -> Option<Recognition> {
        let obj = self.objects.get(object_idx)?;
        let matches = match_descriptors(descs, &obj.descriptors, &MatchParams::default());
        if matches.len() < 8 {
            return None;
        }
        let pairs: Vec<_> = matches
            .iter()
            .map(|m| {
                let q = &descs[m.query_idx].keypoint;
                let r = &obj.descriptors[m.ref_idx].keypoint;
                ((r.x as f64, r.y as f64), (q.x as f64, q.y as f64))
            })
            .collect();
        let fit = ransac_homography(&pairs, &RansacParams::default(), rng)?;
        let pose = project_bbox(&fit.homography, &obj.bbox, fit.inliers.len())?;
        Some(Recognition {
            name: obj.name.clone(),
            pose,
            fisher_similarity,
        })
    }

    /// Run the full recognition pipeline on a query frame: detection,
    /// description, encoding, LSH candidate retrieval, per-candidate
    /// matching, and pose estimation.
    pub fn recognize(&self, frame: &GrayImage, rng: &mut SimRng) -> Vec<Recognition> {
        let (pyr, kps) = detect(frame, &self.detector);
        let descs = describe_all(&pyr, &kps);
        self.recognize_described(&descs, rng)
    }

    /// Recognition from precomputed descriptors (what the distributed
    /// pipeline does, since `sift` runs on a different machine).
    pub fn recognize_described(&self, descs: &[Descriptor], rng: &mut SimRng) -> Vec<Recognition> {
        if descs.is_empty() {
            return Vec::new();
        }
        let fv = self.encode_frame(descs);
        // All objects are candidates in a 3-object database; take LSH's
        // ranked shortlist (top half, min 1) as the realistic filter.
        let k = (self.lsh.len() / 2).max(1);
        let shortlist = self.lsh.query(&fv, k.max(2));
        let mut out = Vec::new();
        for (lsh_id, sim) in shortlist {
            let obj = &self.objects[self.lsh_to_object[lsh_id]];
            let matches = match_descriptors(descs, &obj.descriptors, &MatchParams::default());
            if matches.len() < 8 {
                continue;
            }
            let pairs: Vec<_> = matches
                .iter()
                .map(|m| {
                    let q = &descs[m.query_idx].keypoint;
                    let r = &obj.descriptors[m.ref_idx].keypoint;
                    ((r.x as f64, r.y as f64), (q.x as f64, q.y as f64))
                })
                .collect();
            if let Some(fit) = ransac_homography(&pairs, &RansacParams::default(), rng) {
                if let Some(pose) = project_bbox(&fit.homography, &obj.bbox, fit.inliers.len()) {
                    out.push(Recognition {
                        name: obj.name.clone(),
                        pose,
                        fisher_similarity: sim,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_db() -> (SceneGenerator, ReferenceDb, SimRng) {
        let scene = SceneGenerator::workplace_scaled(1, 320, 180);
        let mut rng = SimRng::new(42);
        let db = ReferenceDb::train(&scene, TrainParams::default(), &mut rng);
        (scene, db, rng)
    }

    #[test]
    fn training_partitions_descriptors() {
        let (_, db, _) = small_db();
        assert_eq!(db.objects().len(), 3);
        let total: usize = db.objects().iter().map(|o| o.descriptors.len()).sum();
        assert!(total > 30, "only {total} descriptors assigned to objects");
        // The texture-rich monitor and keyboard must both own features.
        for name in ["monitor", "keyboard"] {
            let obj = db.objects().iter().find(|o| o.name == name).unwrap();
            assert!(
                obj.descriptors.len() >= 5,
                "{name} has {} descriptors",
                obj.descriptors.len()
            );
        }
    }

    #[test]
    fn recognizes_objects_in_reference_view() {
        let (scene, db, mut rng) = small_db();
        let recs = db.recognize(&scene.reference_frame(), &mut rng);
        let names: Vec<_> = recs.iter().map(|r| r.name.as_str()).collect();
        assert!(
            names.contains(&"monitor") || names.contains(&"keyboard"),
            "no objects recognized in the training view: {names:?}"
        );
        // Self-recognition poses should land near the reference bbox.
        for r in &recs {
            let obj = db.objects().iter().find(|o| o.name == r.name).unwrap();
            let (cx, cy) = r.pose.corners[0];
            assert!(
                (cx - obj.bbox.x0).abs() < 25.0 && (cy - obj.bbox.y0).abs() < 25.0,
                "{}: corner ({cx:.1},{cy:.1}) far from bbox origin ({},{})",
                r.name,
                obj.bbox.x0,
                obj.bbox.y0
            );
        }
    }

    #[test]
    fn recognizes_and_tracks_across_video_frames() {
        let (scene, db, mut rng) = small_db();
        let mut hits = 0;
        for idx in [0u32, 5, 10] {
            let recs = db.recognize(&scene.frame(idx), &mut rng);
            if !recs.is_empty() {
                hits += 1;
            }
        }
        assert!(
            hits >= 2,
            "recognized objects in only {hits}/3 moving frames"
        );
    }

    #[test]
    fn empty_descriptor_set_recognizes_nothing() {
        let (_, db, mut rng) = small_db();
        assert!(db.recognize_described(&[], &mut rng).is_empty());
    }

    #[test]
    fn fisher_encoding_has_encoder_dim() {
        let (scene, db, _) = small_db();
        let (pyr, kps) = detect(&scene.frame(0), db.detector_params());
        let descs = describe_all(&pyr, &kps);
        let fv = db.encode_frame(&descs);
        assert_eq!(fv.len(), 2 * 4 * 16);
    }
}
